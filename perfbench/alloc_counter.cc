// Replaces the global operator new/delete of the benchmark binary (and
// only this binary) so every allocation is counted against the thread
// that made it; trace spans report the difference over their lifetime
// as alloc.count / alloc.bytes. Aligned and nothrow forms keep their
// standard implementations, which forward to the ones replaced here.

#include <cstdlib>
#include <new>

#include "trace.h"

void* operator new(std::size_t size) {
  perfbench::NoteAllocation(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
