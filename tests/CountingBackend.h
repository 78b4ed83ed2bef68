//===- tests/CountingBackend.h - A back-end that counts its calls ---------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CountingBackend: wraps a back-end and counts how often its compile
/// pipeline and its deserialize actually ran, optionally delaying each
/// compile. It forwards everything the caches key or call through (name,
/// cacheConfig, deserialize) untouched. The instrument for exactly-once
/// compilation, cancel-before-run (a count that never moved), warm
/// restarts that compile nothing, and holding a worker busy while a test
/// races against it.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_TESTS_COUNTINGBACKEND_H
#define QCF_TESTS_COUNTINGBACKEND_H

#include "backend/Backend.h"
#include <atomic>
#include <chrono>
#include <thread>

namespace qcf::test {

class CountingBackend : public backend::Backend {
public:
  explicit CountingBackend(std::unique_ptr<backend::Backend> Inner,
                           std::chrono::milliseconds Delay = {})
      : Inner(std::move(Inner)), Delay(Delay) {}

  std::string name() const override { return Inner->name(); }
  std::string cacheConfig() const override { return Inner->cacheConfig(); }

  using backend::Backend::compile;

  std::unique_ptr<backend::CompiledModule>
  compile(const qir::Module &M, const backend::CompileOptions &Opts) override {
    ++Compiles;
    LastModule = &M;
    if (Delay.count())
      std::this_thread::sleep_for(Delay);
    return Inner->compile(M, Opts);
  }
  std::unique_ptr<backend::CompiledModule> deserialize(const uint8_t *Data,
                                                       size_t Len) override {
    ++Deserializes;
    return Inner->deserialize(Data, Len);
  }

  std::atomic<uint64_t> Compiles{0};
  std::atomic<uint64_t> Deserializes{0};
  /// The module the last compile was given.
  std::atomic<const qir::Module *> LastModule{nullptr};

private:
  std::unique_ptr<backend::Backend> Inner;
  std::chrono::milliseconds Delay;
};

} // namespace qcf::test

#endif // QCF_TESTS_COUNTINGBACKEND_H
