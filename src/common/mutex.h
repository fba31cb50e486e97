#ifndef TAURUS_COMMON_MUTEX_H_
#define TAURUS_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/lock_rank.h"
#include "common/thread_annotations.h"

namespace taurus {

// Annotated lock wrappers: the only mutex types used in src/. Each carries
// (a) Clang Thread Safety Analysis capability attributes, so `-Wthread-safety
// -Werror=thread-safety` rejects mis-locked accesses at compile time, and
// (b) a LockRank from the DESIGN.md section 12 rank table, so the runtime
// LockRankRegistry catches ordering bugs the static analysis cannot see
// (nesting across classes). The wrappers satisfy
// BasicLockable, so std::unique_lock / std::condition_variable_any compose
// with them where the RAII guards below do not fit.

class TAURUS_CAPABILITY("mutex") Mutex {
 public:
  Mutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
  // Unranked (LockRank::kUnranked): scratch locks in tests and examples.
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TAURUS_ACQUIRE() {
    LockRankRegistry::CheckAcquire(rank_, name_, this);
    mu_.lock();
    LockRankRegistry::NoteAcquired(rank_, name_, this);
  }
  void unlock() TAURUS_RELEASE() {
    LockRankRegistry::NoteReleased(this);
    mu_.unlock();
  }
  bool try_lock() TAURUS_TRY_ACQUIRE(true) {
    LockRankRegistry::CheckAcquire(rank_, name_, this);
    if (!mu_.try_lock()) return false;
    LockRankRegistry::NoteAcquired(rank_, name_, this);
    return true;
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  LockRank rank_ = LockRank::kUnranked;
  const char* name_ = "<unranked>";
};

class TAURUS_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() TAURUS_ACQUIRE() {
    LockRankRegistry::CheckAcquire(rank_, name_, this);
    mu_.lock();
    LockRankRegistry::NoteAcquired(rank_, name_, this);
  }
  void unlock() TAURUS_RELEASE() {
    LockRankRegistry::NoteReleased(this);
    mu_.unlock();
  }
  void lock_shared() TAURUS_ACQUIRE_SHARED() {
    // Shared and exclusive acquisitions rank identically: a reader that
    // nests out of order deadlocks against a writer just the same.
    LockRankRegistry::CheckAcquire(rank_, name_, this);
    mu_.lock_shared();
    LockRankRegistry::NoteAcquired(rank_, name_, this);
  }
  void unlock_shared() TAURUS_RELEASE_SHARED() {
    LockRankRegistry::NoteReleased(this);
    mu_.unlock_shared();
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  LockRank rank_ = LockRank::kUnranked;
  const char* name_ = "<unranked>";
};

// RAII guards. TAURUS_SCOPED_CAPABILITY tells the analysis the lock is
// held exactly for the guard's lifetime; the destructor's TAURUS_RELEASE
// covers whichever mode the constructor acquired.

class TAURUS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) TAURUS_ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  ~MutexLock() TAURUS_RELEASE() { mu_->unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

class TAURUS_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) TAURUS_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_->lock_shared();
  }
  ~ReaderMutexLock() TAURUS_RELEASE() { mu_->unlock_shared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

class TAURUS_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) TAURUS_ACQUIRE(mu) : mu_(mu) {
    mu_->lock();
  }
  ~WriterMutexLock() TAURUS_RELEASE() { mu_->unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

// Condition variable over the annotated Mutex. condition_variable_any's
// wait path unlocks and relocks through Mutex::lock/unlock, so the
// LockRankRegistry's held-lock stack stays exact across a wait. There are
// deliberately no predicate overloads: a lambda predicate's member reads
// are invisible to the analysis, so all waits are written as explicit
//   while (!pred) cv.Wait(mu);
// loops, which TSA checks like any other guarded access.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) TAURUS_REQUIRES(mu) { cv_.wait(mu); }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(Mutex& mu,
                           const std::chrono::time_point<Clock, Duration>&
                               deadline) TAURUS_REQUIRES(mu) {
    return cv_.wait_until(mu, deadline);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace taurus

#endif  // TAURUS_COMMON_MUTEX_H_
