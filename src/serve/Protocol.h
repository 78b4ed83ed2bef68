//===- serve/Protocol.h - qcf_serve request lines ---------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request side of the qcf_serve line protocol (tools/qcf_serve.cpp),
/// as one pure function so every malformed input is testable without a
/// socket. A request is one line, at most MaxRequestLine bytes:
///
///   OPEN <tenant>
///   EXEC <sid> <query> [deadline_ms]
///   CLOSE <sid>
///   STATS | PING | SHUTDOWN
///
/// Numbers are plain decimal and must fit: a session id that does not
/// parse, or a deadline whose nanoseconds overflow 64 bits, is an error,
/// not 0. Each error carries the reason the daemon sends as "ERR <reason>".
///
//===----------------------------------------------------------------------===//

#ifndef QCF_SERVE_PROTOCOL_H
#define QCF_SERVE_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace qcf::serve {

/// Longest request line accepted, newline excluded. A connection whose
/// buffered bytes pass this without a newline gets "ERR line-too-long".
constexpr size_t MaxRequestLine = 4096;

struct Request {
  enum Kind { Empty, Invalid, Ping, Stats, Shutdown, Open, Close, Exec };
  Kind K = Empty;
  std::string Name;          ///< OPEN: the tenant; EXEC: the query.
  uint64_t Session = 0;      ///< CLOSE, EXEC.
  uint64_t DeadlineNs = 0;   ///< EXEC; 0 = none.
  const char *Err = nullptr; ///< Invalid: the ERR reason.
};

/// Whole-token unsigned decimal into \p V; false on anything else or on
/// overflow. The QCF_SERVE_* environment is read with it too.
bool parseU64(std::string_view S, uint64_t &V);

/// Parses one request line (without its newline; a trailing '\r' is
/// dropped). A blank line is Empty; anything malformed is Invalid.
Request parseRequest(std::string_view Line);

} // namespace qcf::serve

#endif // QCF_SERVE_PROTOCOL_H
