#include "attack/scheme_file.hpp"

#include <charconv>
#include <map>
#include <sstream>

#include "util/error.hpp"

namespace deepstrike::attack {

std::string write_scheme_file(const AttackScheme& scheme, const std::string& comment) {
    std::ostringstream os;
    if (!comment.empty()) os << "# " << comment << '\n';
    os << "attack_delay = " << scheme.attack_delay_cycles << '\n'
       << "attack_period = " << scheme.strike_cycles << '\n'
       << "attack_gap = " << scheme.gap_cycles << '\n'
       << "num_attacks = " << scheme.num_strikes << '\n';
    return os.str();
}

namespace {

std::string trim(const std::string& s) {
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos) return {};
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

std::size_t parse_value(const std::string& key, const std::string& value) {
    std::size_t result = 0;
    const auto [ptr, ec] =
        std::from_chars(value.data(), value.data() + value.size(), result);
    if (ec != std::errc{} || ptr != value.data() + value.size()) {
        throw FormatError("scheme file: bad value for '" + key + "': " + value);
    }
    return result;
}

} // namespace

AttackScheme parse_scheme_file(const std::string& text) {
    std::map<std::string, std::size_t> values;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        const std::string stripped = trim(line);
        if (stripped.empty() || stripped[0] == '#') continue;
        const auto eq = stripped.find('=');
        if (eq == std::string::npos) {
            throw FormatError("scheme file: expected key = value: " + stripped);
        }
        const std::string key = trim(stripped.substr(0, eq));
        const std::string value = trim(stripped.substr(eq + 1));
        if (key != "attack_delay" && key != "attack_period" && key != "attack_gap" &&
            key != "num_attacks") {
            throw FormatError("scheme file: unknown key '" + key + "'");
        }
        if (values.count(key) != 0) {
            throw FormatError("scheme file: duplicate key '" + key + "'");
        }
        values[key] = parse_value(key, value);
    }

    if (values.count("num_attacks") == 0) {
        throw FormatError("scheme file: missing num_attacks");
    }
    if (values.count("attack_delay") == 0) {
        throw FormatError("scheme file: missing attack_delay");
    }

    AttackScheme scheme;
    scheme.attack_delay_cycles = values["attack_delay"];
    scheme.num_strikes = values["num_attacks"];
    scheme.strike_cycles = values.count("attack_period") ? values["attack_period"] : 1;
    scheme.gap_cycles = values.count("attack_gap") ? values["attack_gap"] : 0;
    if (scheme.strike_cycles == 0) {
        throw FormatError("scheme file: attack_period must be >= 1");
    }
    try {
        (void)scheme.total_cycles();
    } catch (const ConfigError&) {
        throw FormatError("scheme file: scheme length overflows");
    }
    return scheme;
}

} // namespace deepstrike::attack
