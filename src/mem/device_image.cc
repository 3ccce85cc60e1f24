#include "mem/device_image.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "sim/logging.hh"

namespace tta::mem {

DeviceImage::DeviceImage(size_t bytes,
                         const std::function<void(uint8_t *)> &fill)
    : bytes_(bytes)
{
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    fileBytes_ = (kBase + bytes + page - 1) / page * page;
    fd_ = memfd_create("tta-device-image", MFD_CLOEXEC);
    fatal_if(fd_ < 0, "cannot create a device image file: %s",
             std::strerror(errno));
    fatal_if(ftruncate(fd_, static_cast<off_t>(fileBytes_)) != 0,
             "cannot size a device image file to %zu bytes: %s",
             fileBytes_, std::strerror(errno));
    void *p = mmap(nullptr, fileBytes_, PROT_READ | PROT_WRITE, MAP_SHARED,
                   fd_, 0);
    fatal_if(p == MAP_FAILED, "cannot map a %zu-byte device image: %s",
             fileBytes_, std::strerror(errno));
    host_ = static_cast<uint8_t *>(p);
    fill(host_ + kBase);
    mprotect(host_, fileBytes_, PROT_READ);
}

DeviceImage::~DeviceImage()
{
    munmap(host_, fileBytes_);
    close(fd_);
}

} // namespace tta::mem
