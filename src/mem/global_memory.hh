/**
 * @file
 * Functional simulated global memory.
 *
 * A flat byte-addressable space shared by the SIMT cores and the
 * accelerators. Trees, query buffers and result buffers are serialized
 * into it by the workloads; the timing models only move addresses around,
 * while functional values are read from / written to this store.
 */

#ifndef TTA_MEM_GLOBAL_MEMORY_HH
#define TTA_MEM_GLOBAL_MEMORY_HH

#include <cstring>
#include <vector>

#include "mem/request.hh"
#include "sim/logging.hh"

namespace tta::mem {

class GlobalMemory
{
  public:
    /** @param capacity total bytes of simulated DRAM. 256MB covers the
     *  largest evaluated workloads (a 4M-key B-Tree is ~70MB); enlarge
     *  per-instance when needed. */
    explicit GlobalMemory(size_t capacity = 256ull << 20)
        : data_(capacity, 0)
    {
        // Address 0 is reserved so that "0" can mean "null pointer" in
        // serialized tree nodes.
        allocTop_ = 64;
    }

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
        fatal_if(base > data_.size() || bytes > data_.size() - base,
                 "simulated memory exhausted: %zu bytes requested "
                 "(align %zu) with allocTop %llu of capacity %zu",
                 bytes, align, static_cast<unsigned long long>(allocTop_),
                 data_.size());
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
        std::memcpy(&value, data_.data() + addr, sizeof(T));
        return value;
    }

    template <typename T>
    void
    write(Addr addr, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        boundsCheck(addr, sizeof(T));
        std::memcpy(data_.data() + addr, &value, sizeof(T));
    }

    void
    readBytes(Addr addr, void *dst, size_t n) const
    {
        boundsCheck(addr, n);
        std::memcpy(dst, data_.data() + addr, n);
    }

    void
    writeBytes(Addr addr, const void *src, size_t n)
    {
        boundsCheck(addr, n);
        std::memcpy(data_.data() + addr, src, n);
    }

    size_t capacity() const { return data_.size(); }

  private:
    void
    boundsCheck(Addr addr, size_t n) const
    {
        panic_if(addr + n > data_.size(),
                 "simulated memory access out of bounds: addr=0x%llx "
                 "size=%zu capacity=%zu",
                 static_cast<unsigned long long>(addr), n, data_.size());
    }

    std::vector<uint8_t> data_;
    Addr allocTop_;
};

} // namespace tta::mem

#endif // TTA_MEM_GLOBAL_MEMORY_HH
