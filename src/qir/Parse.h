//===- qir/Parse.h - QIR textual parser -------------------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the textual form produced by qir/Print.h back into a Module —
/// the counterpart that makes the printer useful beyond debugging: golden
/// tests can be written as IR text, and print→parse round-trips validate
/// both directions against each other.
///
/// Value and block numbering in the input does not need to be dense or in
/// layout order; the parser renumbers in textual order, so the result is
/// always layout-normalized. For functions already in layout order (the
/// builder's invariant), print(parse(print(F))) == print(F) exactly.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_QIR_PARSE_H
#define QCF_QIR_PARSE_H

#include "qir/Function.h"
#include <functional>
#include <memory>
#include <string>
#include <string_view>

namespace qcf::qir {

/// Resolves a runtime symbol name to its address. Declarations in parsed
/// text carry no addresses; supply rt::runtimeSymbolAddress (or any other
/// resolver) to make the parsed module executable.
using SymbolResolver = std::function<void *(const std::string &)>;

/// Parses one or more `define` blocks. On failure returns nullptr and, if
/// \p Error is non-null, stores a "line N: message" description. With a
/// \p Resolver, a call to a name it does not resolve is such a failure.
std::unique_ptr<Module> parseModule(std::string_view Text,
                                    std::string *Error = nullptr,
                                    const SymbolResolver &Resolver = {});

} // namespace qcf::qir

#endif // QCF_QIR_PARSE_H
