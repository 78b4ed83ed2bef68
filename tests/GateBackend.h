//===- tests/GateBackend.h - A back-end whose compile waits on a gate -----===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// GateBackend: compile() blocks until release(). PinnedWorker submits one
/// gated job to a single-worker CompileService, which pins that worker
/// deterministically, so later jobs provably sit in the queue
/// (cancel-before-run, refusal, fairness and shutdown tests). submitJob()
/// submits with a fresh TierUp handle.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_TESTS_GATEBACKEND_H
#define QCF_TESTS_GATEBACKEND_H

#include "backend/Registry.h"
#include "backend/TierUp.h"
#include "qir/Builder.h"
#include <condition_variable>
#include <mutex>

namespace qcf::test {

class GateBackend : public backend::Backend {
public:
  explicit GateBackend(std::unique_ptr<backend::Backend> Inner)
      : Inner(std::move(Inner)) {}

  std::string name() const override { return Inner->name(); }

  using backend::Backend::compile;

  std::unique_ptr<backend::CompiledModule>
  compile(const qir::Module &M, const backend::CompileOptions &Opts) override {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Started = true;
    }
    Cv.notify_all();
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [&] { return Released; });
    Lock.unlock();
    return Inner->compile(M, Opts);
  }

  void waitStarted() {
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [&] { return Started; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Released = true;
    }
    Cv.notify_all();
  }
  bool released() {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Released;
  }

private:
  std::unique_ptr<backend::Backend> Inner;
  std::mutex Mutex;
  std::condition_variable Cv;
  bool Started = false, Released = false;
};

/// Submits the compile of \p M with \p BE to \p Svc. \returns its handle,
/// or null if the service refused the job.
inline std::shared_ptr<backend::TierUp>
submitJob(backend::CompileService &Svc, const qir::Module &M,
          backend::Backend &BE, const backend::CompileOptions &Opts = {}) {
  auto Up = std::make_shared<backend::TierUp>();
  return Svc.submit(M, BE, Opts, nullptr, Up) ? Up : nullptr;
}

/// Occupies the only worker of \p Svc with a gated job until release().
struct PinnedWorker {
  explicit PinnedWorker(backend::CompileService &Svc,
                        const backend::CompileOptions &Opts = {})
      : Gate(backend::createBackend("DirectEmit")) {
    qir::Function *F = M.createFunction("f", {qir::Type::I64}, qir::Type::I64);
    qir::Builder B(F);
    B.ret(F->paramValue(0));
    Up = submitJob(Svc, M, Gate, Opts);
    if (Up)
      Gate.waitStarted();
  }
  ~PinnedWorker() { release(); }

  /// Opens the gate. \returns the pinned job's module.
  backend::CompiledModule *release() {
    Gate.release();
    return Up ? Up->wait() : nullptr;
  }

  GateBackend Gate;
  qir::Module M;
  std::shared_ptr<backend::TierUp> Up; ///< Null if the submit was refused.
};

} // namespace qcf::test

#endif // QCF_TESTS_GATEBACKEND_H
