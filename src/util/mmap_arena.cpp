#include "util/mmap_arena.h"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace imc {

namespace detail {

void throw_bad_arena_alloc(std::size_t bytes) {
  throw std::runtime_error("mmap_arena: allocation of " +
                           std::to_string(bytes) + " bytes failed");
}

void* aligned_slab(std::size_t bytes) {
  // aligned_alloc demands size % alignment == 0; round_up_64 upstream
  // guarantees it.
  void* slab = std::aligned_alloc(64, bytes);
  if (slab == nullptr) throw_bad_arena_alloc(bytes);
  return slab;
}

}  // namespace detail

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error("mmap_arena: " + what + ": " +
                           std::strerror(errno));
}

}  // namespace

MmapStorage::~MmapStorage() { reset(); }

void MmapStorage::reset() noexcept {
  if (address_ != nullptr) ::munmap(address_, bytes_);
  address_ = nullptr;
  bytes_ = 0;
}

MmapStorage::MmapStorage(MmapStorage&& other) noexcept
    : address_(std::exchange(other.address_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)) {}

MmapStorage& MmapStorage::operator=(MmapStorage&& other) noexcept {
  if (this != &other) {
    reset();
    address_ = std::exchange(other.address_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
  }
  return *this;
}

MmapStorage MmapStorage::open_readonly(const std::string& path) {
  // The mapping outlives the descriptor (POSIX), so the fd is closed on
  // every path out of here.
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail_errno("cannot open " + path);
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};
  struct stat st{};
  if (::fstat(fd, &st) != 0) fail_errno("cannot stat " + path);
  if (st.st_size == 0) {
    throw std::runtime_error("mmap_arena: " + path + " is empty");
  }
  const auto bytes = static_cast<std::size_t>(st.st_size);
  void* address = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  if (address == MAP_FAILED) fail_errno("cannot map " + path);
  MmapStorage storage;
  storage.address_ = address;
  storage.bytes_ = bytes;
  return storage;
}

}  // namespace imc
