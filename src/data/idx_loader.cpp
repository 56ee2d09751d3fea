#include "data/idx_loader.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <vector>

namespace fedvr::data {

namespace {

constexpr std::uint32_t kImagesMagic = 0x00000803;
constexpr std::uint32_t kLabelsMagic = 0x00000801;

std::uint32_t read_be32(std::istream& in, const std::string& path) {
  unsigned char bytes[4];
  in.read(reinterpret_cast<char*>(bytes), 4);
  FEDVR_CHECK_MSG(in.good(), "truncated IDX header in " << path);
  return (std::uint32_t{bytes[0]} << 24) | (std::uint32_t{bytes[1]} << 16) |
         (std::uint32_t{bytes[2]} << 8) | std::uint32_t{bytes[3]};
}

std::uint32_t peek_magic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return 0;
  unsigned char bytes[4];
  in.read(reinterpret_cast<char*>(bytes), 4);
  if (!in.good()) return 0;
  return (std::uint32_t{bytes[0]} << 24) | (std::uint32_t{bytes[1]} << 16) |
         (std::uint32_t{bytes[2]} << 8) | std::uint32_t{bytes[3]};
}

// Bytes after the `header`-byte header of `path`.
std::uint64_t payload_bytes(const std::string& path, std::uint64_t header) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  FEDVR_CHECK_MSG(!ec && size >= header, "cannot size IDX file " << path);
  return size - header;
}

}  // namespace

Dataset load_idx(const std::string& images_path,
                 const std::string& labels_path, std::size_t num_classes) {
  std::ifstream images(images_path, std::ios::binary);
  FEDVR_CHECK_MSG(images.good(), "cannot open IDX images file "
                                     << images_path);
  std::ifstream labels(labels_path, std::ios::binary);
  FEDVR_CHECK_MSG(labels.good(), "cannot open IDX labels file "
                                     << labels_path);

  const std::uint32_t img_magic = read_be32(images, images_path);
  FEDVR_CHECK_MSG(img_magic == kImagesMagic,
                  images_path << " has magic " << img_magic
                              << ", expected 0x803 (images)");
  const std::uint32_t n_images = read_be32(images, images_path);
  const std::uint32_t rows = read_be32(images, images_path);
  const std::uint32_t cols = read_be32(images, images_path);

  const std::uint32_t lbl_magic = read_be32(labels, labels_path);
  FEDVR_CHECK_MSG(lbl_magic == kLabelsMagic,
                  labels_path << " has magic " << lbl_magic
                              << ", expected 0x801 (labels)");
  const std::uint32_t n_labels = read_be32(labels, labels_path);
  FEDVR_CHECK_MSG(n_images == n_labels,
                  "IDX pair mismatch: " << n_images << " images vs "
                                        << n_labels << " labels");

  // Bound the header counts by the bytes the files hold before sizing
  // anything from them; dividing keeps n * rows * cols from wrapping.
  const std::uint64_t pixels = std::uint64_t{rows} * cols;
  FEDVR_CHECK_MSG(
      pixels == 0 || n_images <= payload_bytes(images_path, 16) / pixels,
      "truncated image data in " << images_path);
  FEDVR_CHECK_MSG(n_labels <= payload_bytes(labels_path, 8),
                  "truncated label data in " << labels_path);

  Dataset out(tensor::Shape({1, rows, cols}), n_images, num_classes);
  std::vector<unsigned char> pixel_row(pixels);
  for (std::uint32_t i = 0; i < n_images; ++i) {
    images.read(reinterpret_cast<char*>(pixel_row.data()),
                static_cast<std::streamsize>(pixel_row.size()));
    FEDVR_CHECK_MSG(images.good(),
                    "truncated image data at sample " << i << " in "
                                                      << images_path);
    auto dst = out.mutable_sample(i);
    for (std::size_t p = 0; p < pixel_row.size(); ++p) {
      dst[p] = static_cast<double>(pixel_row[p]) / 255.0;
    }
    char label = 0;
    labels.read(&label, 1);
    FEDVR_CHECK_MSG(labels.good(),
                    "truncated label data at sample " << i << " in "
                                                      << labels_path);
    out.set_label(i, static_cast<int>(static_cast<unsigned char>(label)));
  }
  return out;
}

bool idx_pair_available(const std::string& images_path,
                        const std::string& labels_path) {
  return peek_magic(images_path) == kImagesMagic &&
         peek_magic(labels_path) == kLabelsMagic;
}

}  // namespace fedvr::data
