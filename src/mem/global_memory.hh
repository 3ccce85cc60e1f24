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
 * writes.
 */

#ifndef TTA_MEM_GLOBAL_MEMORY_HH
#define TTA_MEM_GLOBAL_MEMORY_HH

#include <cstring>
#include <type_traits>

#include "mem/request.hh"
#include "sim/logging.hh"

namespace tta::mem {

class GlobalMemory
{
  public:
    /** @param capacity total bytes of simulated DRAM. 256MB covers the
     *  largest evaluated workloads (a 4M-key B-Tree is ~130MB); enlarge
     *  per-instance when needed. Untouched bytes cost no host memory. */
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
        boundsCheck(addr, sizeof(T));
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
        boundsCheck(addr, n);
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

    uint8_t *data_;
    size_t capacity_;
    // Address 0 is reserved so that "0" can mean "null pointer" in
    // serialized tree nodes.
    Addr allocTop_ = 64;
};

} // namespace tta::mem

#endif // TTA_MEM_GLOBAL_MEMORY_HH
