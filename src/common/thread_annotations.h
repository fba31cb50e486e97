#ifndef TAURUS_COMMON_THREAD_ANNOTATIONS_H_
#define TAURUS_COMMON_THREAD_ANNOTATIONS_H_

// Clang Thread Safety Analysis attributes (DESIGN.md section 14), following
// the convention of GPORCA/Greenplum's compile-time thread-safety checks:
// the concurrency contract is written on the declarations, and
// `-Wthread-safety -Werror=thread-safety` (the TAURUS_THREAD_SAFETY=1
// check.sh leg) turns a mis-locked access into a compile error instead of a
// TSan flake. Every macro expands to nothing on non-Clang compilers, so GCC
// builds are unaffected.
//
// The vocabulary, in the order a reader meets it:
//  - TAURUS_CAPABILITY marks a class as a lock ("capability").
//  - TAURUS_GUARDED_BY(mu) on a data member: reads need `mu` held (shared
//    suffices), writes need it held exclusively.
//  - TAURUS_PT_GUARDED_BY(mu): same, for the pointee of a pointer member.
//  - TAURUS_REQUIRES / TAURUS_REQUIRES_SHARED on a function: the caller
//    must already hold the lock (the `*Locked()` helper convention).
//  - TAURUS_ACQUIRE / TAURUS_RELEASE (and the _SHARED forms) annotate the
//    lock primitives themselves and RAII guards.
//  - TAURUS_EXCLUDES: the caller must NOT hold the lock (self-deadlock
//    guard on non-recursive mutexes).
//  - TAURUS_ACQUIRED_BEFORE / TAURUS_ACQUIRED_AFTER document lock ordering
//    where both locks are visible in one class. Orderings that span
//    classes are beyond the static analysis; the runtime LockRankRegistry
//    (common/lock_rank.h) enforces those.
//  - The no_thread_safety_analysis opt-out (last macro below) turns the
//    analysis off for one function. No function in src/ uses it; a new
//    use must cite the runtime check that covers it instead.

#if defined(__clang__)
#define TAURUS_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define TAURUS_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op off Clang
#endif

#define TAURUS_CAPABILITY(x) \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

#define TAURUS_SCOPED_CAPABILITY \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

#define TAURUS_GUARDED_BY(x) \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

#define TAURUS_PT_GUARDED_BY(x) \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

#define TAURUS_ACQUIRED_BEFORE(...) \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))

#define TAURUS_ACQUIRED_AFTER(...) \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))

#define TAURUS_REQUIRES(...) \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

#define TAURUS_REQUIRES_SHARED(...) \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

#define TAURUS_ACQUIRE(...) \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

#define TAURUS_ACQUIRE_SHARED(...) \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))

#define TAURUS_RELEASE(...) \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

#define TAURUS_RELEASE_SHARED(...) \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(release_shared_capability(__VA_ARGS__))

#define TAURUS_TRY_ACQUIRE(...) \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

#define TAURUS_TRY_ACQUIRE_SHARED(...) \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_shared_capability(__VA_ARGS__))

#define TAURUS_EXCLUDES(...) \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

#define TAURUS_ASSERT_CAPABILITY(x) \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

#define TAURUS_ASSERT_SHARED_CAPABILITY(x) \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(assert_shared_capability(x))

#define TAURUS_RETURN_CAPABILITY(x) \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

#define TAURUS_NO_THREAD_SAFETY_ANALYSIS \
  TAURUS_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

#endif  // TAURUS_COMMON_THREAD_ANNOTATIONS_H_
