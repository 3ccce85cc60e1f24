/**
 * @file
 * A read-only image of device memory that many devices share.
 *
 * The image holds the bytes of device addresses [0, end()): the null
 * reservation [0, GlobalMemory::kFirstAddr), which reads zero, then a
 * payload laid out for address kFirstAddr, the first allocation of a
 * fresh device. Its pages live in an anonymous memory file (a memfd),
 * so GlobalMemory::map() can put them into a fresh device's address
 * space with one private file mapping: every device reads the same
 * pages in place, and none copies them. The host reads those pages
 * through payload().
 *
 * The payload is written once, at construction, and is read-only from
 * then on, so images are shared between threads without a lock.
 * Linux-only, like GlobalMemory.
 */

#ifndef TTA_MEM_DEVICE_IMAGE_HH
#define TTA_MEM_DEVICE_IMAGE_HH

#include <cstddef>
#include <cstdint>
#include <functional>

#include "mem/global_memory.hh"

namespace tta::mem {

class DeviceImage
{
  public:
    /**
     * @param bytes payload size.
     * @param fill  writes the @p bytes payload bytes; they are zero on
     *              entry and read-only once it returns.
     */
    DeviceImage(size_t bytes, const std::function<void(uint8_t *)> &fill);
    ~DeviceImage();

    DeviceImage(const DeviceImage &) = delete;
    DeviceImage &operator=(const DeviceImage &) = delete;

    /** Device address of the payload's first byte. */
    static constexpr Addr kBase = GlobalMemory::kFirstAddr;

    /** One past the payload's last device address. */
    Addr end() const { return kBase + bytes_; }
    size_t bytes() const { return bytes_; }

    /** The payload as the host sees it. */
    const uint8_t *payload() const { return host_ + kBase; }

    /** The memory file: device bytes [0, fileBytes()), page-rounded. */
    int fd() const { return fd_; }
    size_t fileBytes() const { return fileBytes_; }

  private:
    size_t bytes_;
    size_t fileBytes_;
    int fd_;
    uint8_t *host_; //!< the whole file, mapped read-only
};

} // namespace tta::mem

#endif // TTA_MEM_DEVICE_IMAGE_HH
