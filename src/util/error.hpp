// Error handling primitives shared by all deepstrike modules.
//
// The library throws exceptions for contract violations and unrecoverable
// configuration errors (E.2 of the C++ Core Guidelines); hot simulation
// loops are exception-free by construction.
#pragma once

#include <stdexcept>
#include <string>

namespace deepstrike {

/// Base class of all deepstrike exceptions.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller violated a documented precondition.
class ContractError : public Error {
public:
    explicit ContractError(const std::string& what) : Error("contract violation: " + what) {}
};

/// A configuration value is out of its legal range or inconsistent.
class ConfigError : public Error {
public:
    explicit ConfigError(const std::string& what) : Error("bad configuration: " + what) {}
};

/// Malformed external data (scheme file, serialized weights, journals...).
class FormatError : public Error {
public:
    explicit FormatError(const std::string& what) : Error("format error: " + what) {}
};

/// An I/O operation (weight cache, CSV dump) failed.
class IoError : public Error {
public:
    explicit IoError(const std::string& what) : Error("io error: " + what) {}
};

/// Throws ContractError with `msg` when `cond` is false.
/// Used at module boundaries; internal invariants use assert().
inline void expects(bool cond, const char* msg) {
    if (!cond) throw ContractError(msg);
}

} // namespace deepstrike
