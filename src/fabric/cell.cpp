#include "fabric/cell.hpp"

namespace deepstrike::fabric {

bool breaks_combinational_loop(CellKind kind) {
    switch (kind) {
        case CellKind::Ldce:   // level-sensitive, but sequential for DRC
        case CellKind::Fdre:
        case CellKind::Bram36: // synchronous read/write ports
        case CellKind::Dsp48:  // pipeline registers enabled in our configs
        case CellKind::Mmcm:
            return true;
        default:
            return false;
    }
}

std::size_t lut_cost(CellKind kind) {
    switch (kind) {
        case CellKind::Lut1:
        case CellKind::Lut6:
        case CellKind::Lut6_2:
            return 1;
        default:
            return 0;
    }
}

std::size_t ff_cost(CellKind kind) {
    switch (kind) {
        case CellKind::Ldce:
        case CellKind::Fdre:
            return 1;
        default:
            return 0;
    }
}

std::size_t dsp_cost(CellKind kind) {
    return kind == CellKind::Dsp48 ? 1 : 0;
}

std::size_t bram_cost(CellKind kind) {
    return kind == CellKind::Bram36 ? 1 : 0;
}

} // namespace deepstrike::fabric
