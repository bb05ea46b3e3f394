// The "attacking scheme file" (paper Sec. III-D-2).
//
// Human-editable key=value text listing the three parameters the paper
// names — attack delay, attack period, number of attacks — plus the gap
// between strikes. It is the only artifact the host hands the device:
// parsed back, it gives the AttackScheme an AttackController compiles into
// its signal RAM.
//
//   # strike CONV2
//   attack_delay = 8532
//   attack_period = 1
//   attack_gap = 2
//   num_attacks = 4500
#pragma once

#include <string>

#include "attack/signal_ram.hpp"

namespace deepstrike::attack {

/// Serializes a scheme to the file format (with a header comment).
std::string write_scheme_file(const AttackScheme& scheme,
                              const std::string& comment = {});

/// Parses the file format. Throws FormatError on malformed lines, unknown
/// keys, duplicate keys, missing required keys (num_attacks,
/// attack_delay), or a scheme whose length overflows size_t.
/// attack_period defaults to 1, attack_gap to 0.
AttackScheme parse_scheme_file(const std::string& text);

} // namespace deepstrike::attack
