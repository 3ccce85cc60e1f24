/**
 * @file
 * Functional simulated global memory.
 *
 * A flat byte-addressable space shared by the SIMT cores and the
 * accelerators. Trees, query buffers and result buffers are serialized
 * into it by the workloads; the timing models only move addresses around,
 * while functional values are read from / written to this store.
 *
 * The store is lazily zeroed: it is an anonymous mapping, so the OS maps
 * zero pages on first touch and a device costs memory only for what it
 * writes. A fresh device can instead start with a read-only DeviceImage
 * mapped at its lowest addresses (map()): its pages are shared with
 * every other device that maps the same image, and a device write into
 * the image's bytes is fatal. Reads see one flat space either way.
 * Linux-only (anonymous and memory-file mappings).
 */

#ifndef TTA_MEM_GLOBAL_MEMORY_HH
#define TTA_MEM_GLOBAL_MEMORY_HH

#include <cstring>
#include <type_traits>

#include "mem/request.hh"
#include "sim/logging.hh"

namespace tta::mem {

class DeviceImage;

class GlobalMemory
{
  public:
    /** Address 0 is reserved so that "0" can mean "null pointer" in
     *  serialized tree nodes; a fresh device allocates from here. */
    static constexpr Addr kFirstAddr = 64;
    static_assert(kFirstAddr % 64 == 0, "first allocation is line-aligned");

    /** @param capacity total bytes of simulated DRAM. 256MB covers the
     *  largest evaluated workloads (the 4M-key B-Tree's image is
     *  ~130MB of it); enlarge per-instance when needed. Untouched bytes
     *  and mapped image pages that a device only reads cost it no host
     *  memory of its own. */
    explicit GlobalMemory(size_t capacity = 256ull << 20);
    ~GlobalMemory();

    GlobalMemory(const GlobalMemory &) = delete;
    GlobalMemory &operator=(const GlobalMemory &) = delete;

    /**
     * Bump-allocate a region. A request that does not fit (workload
     * sizes are user input) is a fatal() that states the request, the
     * allocation top and the capacity.
     * @param bytes size of the region.
     * @param align alignment (power of two); defaults to a cache line so
     *        that tree nodes never straddle lines, matching how the
     *        paper's 64B nodes are laid out.
     */
    Addr
    alloc(size_t bytes, size_t align = 64)
    {
        panic_if((align & (align - 1)) != 0, "alignment not a power of 2");
        Addr base = (allocTop_ + align - 1) & ~(align - 1);
        // Compare against the room left, never base + bytes, which
        // wraps for huge requests.
        fatal_if(base > capacity_ || bytes > capacity_ - base,
                 "simulated memory exhausted: %zu bytes requested "
                 "(align %zu) with allocTop %llu of capacity %zu",
                 bytes, align, static_cast<unsigned long long>(allocTop_),
                 capacity_);
        allocTop_ = base + bytes;
        return base;
    }

    /** Bytes allocated so far (high-water mark). */
    Addr allocTop() const { return allocTop_; }

    /**
     * Allocate @p image's payload at its own addresses and back device
     * bytes [0, image.end()) with the image's pages instead of copying
     * them. Only a fresh device (allocTop() == kFirstAddr) can map an
     * image. Later allocations continue after it; one that shares the
     * image's last page is written into a private copy of that page.
     * @return image.kBase, the payload's address.
     */
    Addr map(const DeviceImage &image);

    template <typename T>
    T
    read(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        boundsCheck(addr, sizeof(T));
        T value;
        std::memcpy(&value, data_ + addr, sizeof(T));
        return value;
    }

    template <typename T>
    void
    write(Addr addr, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        writeCheck(addr, sizeof(T));
        std::memcpy(data_ + addr, &value, sizeof(T));
    }

    void
    readBytes(Addr addr, void *dst, size_t n) const
    {
        boundsCheck(addr, n);
        std::memcpy(dst, data_ + addr, n);
    }

    void
    writeBytes(Addr addr, const void *src, size_t n)
    {
        writeCheck(addr, n);
        std::memcpy(data_ + addr, src, n);
    }

    size_t capacity() const { return capacity_; }

  private:
    void
    boundsCheck(Addr addr, size_t n) const
    {
        // Compare against the room left; addr + n wraps near ~0.
        panic_if(addr > capacity_ || n > capacity_ - addr,
                 "simulated memory access out of bounds: addr=0x%llx "
                 "size=%zu capacity=%zu",
                 static_cast<unsigned long long>(addr), n, capacity_);
    }

    void
    writeCheck(Addr addr, size_t n) const
    {
        boundsCheck(addr, n);
        fatal_if(addr < imageEnd_ && addr + n > kFirstAddr,
                 "device write into a mapped read-only image: addr=0x%llx "
                 "size=%zu, image [0x%llx, 0x%llx)",
                 static_cast<unsigned long long>(addr), n,
                 static_cast<unsigned long long>(kFirstAddr),
                 static_cast<unsigned long long>(imageEnd_));
    }

    uint8_t *data_;
    size_t capacity_;
    Addr allocTop_ = kFirstAddr;
    Addr imageEnd_ = 0; //!< mapped image bytes are [kFirstAddr, imageEnd_)
};

} // namespace tta::mem

#endif // TTA_MEM_GLOBAL_MEMORY_HH
