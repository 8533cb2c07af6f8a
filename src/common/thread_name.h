// Names the calling thread, so per-thread CPU in /proc/<pid>/task/*/comm
// (and in top -H, perf, gdb) is attributed to a stage without a debugger.
#ifndef BRDB_COMMON_THREAD_NAME_H_
#define BRDB_COMMON_THREAD_NAME_H_

#include <pthread.h>

namespace brdb {

/// `name` is at most 15 characters (the kernel's limit); longer names are
/// left unset rather than truncated.
inline void NameThisThread(const char* name) {
#if defined(__linux__)
  (void)pthread_setname_np(pthread_self(), name);
#else
  (void)name;
#endif
}

}  // namespace brdb

#endif  // BRDB_COMMON_THREAD_NAME_H_
