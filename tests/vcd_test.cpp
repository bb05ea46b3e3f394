#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/vcd.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace deepstrike::sim {
namespace {

std::string read_file(const std::filesystem::path& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(Vcd, WriterEmitsWellFormedHeaderAndChanges) {
    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() / "ds_vcd_writer.vcd";

    VcdWriter vcd(path.string(), "1ns");
    const std::string v = vcd.add_real("voltage");
    const std::string s = vcd.add_wire("strike", 1);
    const std::string r = vcd.add_wire("readout", 8);
    vcd.end_header();
    vcd.timestamp(0);
    vcd.change_real(v, 0.99);
    vcd.change_wire(s, 1, 1);
    vcd.change_wire(r, 90, 8);
    vcd.timestamp(5);
    vcd.change_wire(s, 0, 1);
    vcd.close();

    const std::string text = read_file(path);
    EXPECT_NE(text.find("$timescale 1ns $end"), std::string::npos);
    EXPECT_NE(text.find("$var real 64 "), std::string::npos);
    EXPECT_NE(text.find("$var wire 8 "), std::string::npos);
    EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
    EXPECT_NE(text.find("#0"), std::string::npos);
    EXPECT_NE(text.find("#5"), std::string::npos);
    EXPECT_NE(text.find("b01011010 "), std::string::npos); // 90
    EXPECT_NE(text.find("r0.99 "), std::string::npos);
    fs::remove(path);
}

TEST(Vcd, WriterContracts) {
    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() / "ds_vcd_contract.vcd";
    VcdWriter vcd(path.string(), "1ns");
    EXPECT_THROW(vcd.timestamp(0), ContractError); // before end_header
    EXPECT_THROW(vcd.add_wire("too_wide", 65), ContractError);
    vcd.end_header();
    EXPECT_THROW(vcd.add_real("late"), ContractError);
    EXPECT_THROW(vcd.end_header(), ContractError);
    vcd.close();
    fs::remove(path);

    EXPECT_THROW(VcdWriter("/nonexistent_dir_xyz/x.vcd", "1ns"), IoError);
}

TEST(Vcd, CosimExportContainsStrikes) {
    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() / "ds_vcd_cosim.vcd";

    Platform platform(PlatformConfig{}, deepstrike::testing::random_qnetwork(3));
    // Fixed strike pattern so the VCD provably contains Start toggles.
    BitVec bits(2000);
    for (std::size_t c = 1000; c < 1010; ++c) bits.set(c, true);
    deepstrike::testing::FixedSource source(bits);
    const CosimResult cosim = platform.simulate_inference(source);
    EXPECT_EQ(cosim.strike_cycles, 10u);
    EXPECT_EQ(cosim.strike_bits.popcount(), 10u);

    write_cosim_vcd(path.string(), cosim);
    const std::string text = read_file(path);
    EXPECT_NE(text.find("die_voltage"), std::string::npos);
    EXPECT_NE(text.find("striker_start"), std::string::npos);
    EXPECT_NE(text.find("tdc_readout"), std::string::npos);
    // The strike rising edge lands at capture sample 2*1000 -> t = 10000 ns.
    EXPECT_NE(text.find("#10000"), std::string::npos);
    fs::remove(path);
}

TEST(Vcd, EmptyTraceRejected) {
    CosimResult empty;
    EXPECT_THROW(write_cosim_vcd("/tmp/ds_never.vcd", empty), ContractError);
}

} // namespace
} // namespace deepstrike::sim
