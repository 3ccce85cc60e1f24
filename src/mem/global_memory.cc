#include "mem/global_memory.hh"

#include <sys/mman.h>

namespace tta::mem {

GlobalMemory::GlobalMemory(size_t capacity) : capacity_(capacity)
{
    // An anonymous mapping rather than calloc: the TSan runtime's calloc
    // zero-fills the whole block, committing every page up front.
    void *p = mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    fatal_if(p == MAP_FAILED, "cannot map %zu bytes of simulated memory",
             capacity);
    data_ = static_cast<uint8_t *>(p);
}

GlobalMemory::~GlobalMemory()
{
    munmap(data_, capacity_);
}

} // namespace tta::mem
