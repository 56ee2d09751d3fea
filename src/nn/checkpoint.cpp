#include "nn/checkpoint.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "util/error.h"

namespace fedvr::nn {

namespace {
constexpr std::uint64_t kMagic = 0x46564452'43503031ULL;  // "FVDRCP01"
constexpr std::uint32_t kVersion = 1;
constexpr std::uintmax_t kHeaderBytes = 8 + 4 + 8;  // magic, version, count

static_assert(std::endian::native == std::endian::little,
              "checkpoint format assumes a little-endian host");
}  // namespace

void save_parameters(const std::string& path, std::span<const double> w) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  FEDVR_CHECK_MSG(out.good(), "cannot open checkpoint for writing: " << path);
  const std::uint64_t count = w.size();
  out.write(reinterpret_cast<const char*>(&kMagic), sizeof kMagic);
  out.write(reinterpret_cast<const char*>(&kVersion), sizeof kVersion);
  out.write(reinterpret_cast<const char*>(&count), sizeof count);
  out.write(reinterpret_cast<const char*>(w.data()),
            static_cast<std::streamsize>(w.size_bytes()));
  FEDVR_CHECK_MSG(out.good(), "write failure on checkpoint " << path);
}

std::vector<double> load_parameters(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FEDVR_CHECK_MSG(in.good(), "cannot open checkpoint: " << path);
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  in.read(reinterpret_cast<char*>(&version), sizeof version);
  in.read(reinterpret_cast<char*>(&count), sizeof count);
  FEDVR_CHECK_MSG(in.good(), "truncated checkpoint header in " << path);
  FEDVR_CHECK_MSG(magic == kMagic,
                  path << " is not a fedvr checkpoint (bad magic)");
  FEDVR_CHECK_MSG(version == kVersion,
                  "unsupported checkpoint version " << version << " in "
                                                    << path);
  // Bound the count by the bytes after the header before sizing anything
  // from it: a corrupt count could wrap count * 8 or reserve gigabytes.
  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
  FEDVR_CHECK_MSG(!ec && count <= (bytes - kHeaderBytes) / sizeof(double),
                  "truncated checkpoint data in " << path);
  std::vector<double> w(count);
  in.read(reinterpret_cast<char*>(w.data()),
          static_cast<std::streamsize>(count * sizeof(double)));
  FEDVR_CHECK_MSG(in.good(), "truncated checkpoint data in " << path);
  // The payload must end exactly here.
  char extra = 0;
  in.read(&extra, 1);
  FEDVR_CHECK_MSG(in.eof(), "trailing bytes after checkpoint data in "
                                << path);
  return w;
}

std::vector<double> load_parameters(const std::string& path,
                                    std::size_t expected) {
  auto w = load_parameters(path);
  FEDVR_CHECK_MSG(w.size() == expected,
                  "checkpoint " << path << " holds " << w.size()
                                << " parameters, model expects " << expected);
  return w;
}

}  // namespace fedvr::nn
