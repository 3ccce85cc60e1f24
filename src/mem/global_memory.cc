#include "mem/global_memory.hh"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>

#include "mem/device_image.hh"

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

Addr
GlobalMemory::map(const DeviceImage &image)
{
    panic_if(allocTop_ != kFirstAddr,
             "a device image maps only into a fresh device (allocTop %llu)",
             static_cast<unsigned long long>(allocTop_));
    // The exhaustion error of a copy; a fresh device's first cache line
    // is kFirstAddr, the address the image is laid out for.
    const Addr base = alloc(image.bytes());
    // Private and writable: the image's last page may hold later
    // allocations, which a write copies into this device alone.
    // writeCheck() keeps the image bytes themselves read-only.
    void *p = mmap(data_, image.fileBytes(), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_FIXED, image.fd(), 0);
    fatal_if(p == MAP_FAILED, "cannot map a %zu-byte device image: %s",
             image.fileBytes(), std::strerror(errno));
    imageEnd_ = image.end();
    return base;
}

} // namespace tta::mem
