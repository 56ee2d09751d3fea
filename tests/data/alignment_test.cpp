// Every way a Dataset comes to exist starts its feature rows on a cache
// line (tensor/aligned.h): the rows are the X operand of the model's GEMMs,
// whose AVX-512 tiles read them as 64-byte vectors. The feature counts here
// (5 and 3 doubles a row, odd sample counts) make the byte sizes no
// multiple of a line, so an allocator that aligns to 16 bytes only would
// fail these checks most of the time.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/idx_loader.h"
#include "data/procedural_images.h"
#include "data/synthetic.h"
#include "tensor/aligned.h"
#include "testing/temp_dir.h"
#include "util/rng.h"

namespace fedvr::data {
namespace {

bool starts_on_line(const Dataset& ds) {
  const auto rows = ds.rows(0, ds.size());
  return reinterpret_cast<std::uintptr_t>(rows.data()) % tensor::kCacheLine ==
         0;
}

Dataset ramp(std::size_t n, std::size_t dim = 5) {
  Dataset d(tensor::Shape({dim}), n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    auto x = d.mutable_sample(i);
    std::iota(x.begin(), x.end(), static_cast<double>(i * dim));
    d.set_label(i, static_cast<int>(i % 3));
  }
  return d;
}

TEST(Alignment, Constructor) {
  for (const std::size_t n : {1, 3, 7, 13}) {
    EXPECT_TRUE(starts_on_line(ramp(n))) << n << " samples";
  }
}

TEST(Alignment, SubsetAndAssignRows) {
  const Dataset src = ramp(11);
  const std::vector<std::size_t> picks = {4, 1, 9};
  EXPECT_TRUE(starts_on_line(src.subset(picks)));
  // A refill that outgrows the storage reallocates; one that fits keeps it.
  Dataset dst = ramp(1);
  const std::vector<std::size_t> more = {0, 2, 3, 5, 6, 7, 8};
  dst.assign_rows(src, more);
  EXPECT_TRUE(starts_on_line(dst));
  dst.assign_rows(src, picks);
  EXPECT_TRUE(starts_on_line(dst));
}

TEST(Alignment, AppendAndSplit) {
  Dataset grown;
  for (const std::size_t n : {3, 5, 1}) {
    grown.append(ramp(n));
    EXPECT_TRUE(starts_on_line(grown)) << grown.size() << " samples";
  }
  util::Rng rng(3);
  const auto [train, test] = grown.split(rng, 0.75);
  EXPECT_TRUE(starts_on_line(train));
  EXPECT_TRUE(starts_on_line(test));
}

TEST(Alignment, PooledTest) {
  FederatedDataset fed;
  for (const std::size_t n : {3, 7}) {
    fed.train.push_back(ramp(n, 3));
    fed.test.push_back(ramp(n, 3));
  }
  EXPECT_TRUE(starts_on_line(fed.pooled_test()));
}

TEST(Alignment, GeneratedDatasets) {
  SyntheticConfig syn;
  syn.num_devices = 2;
  syn.dim = 7;
  EXPECT_TRUE(starts_on_line(make_synthetic_device(syn, 1, 13)));
  ProceduralImageConfig img;
  img.side = 5;
  EXPECT_TRUE(starts_on_line(make_procedural_pool(img, 3, 9)));
}

TEST(Alignment, IdxLoader) {
  const auto dir = fedvr::testing::make_temp_dir("fedvr_alignment_test");
  const auto be32 = [](std::ofstream& out, std::uint32_t v) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      out.put(static_cast<char>((v >> shift) & 0xFFU));
    }
  };
  const std::string images = (dir / "images").string();
  const std::string labels = (dir / "labels").string();
  {
    std::ofstream out(images, std::ios::binary);
    be32(out, 0x803);
    be32(out, 3);  // images
    be32(out, 1);  // rows
    be32(out, 5);  // cols
    for (int i = 0; i < 15; ++i) out.put(static_cast<char>(i));
  }
  {
    std::ofstream out(labels, std::ios::binary);
    be32(out, 0x801);
    be32(out, 3);
    for (int i = 0; i < 3; ++i) out.put(static_cast<char>(i));
  }
  // Kept alive, so each load lands somewhere else on the heap.
  std::vector<Dataset> loads;
  for (int i = 0; i < 4; ++i) {
    loads.push_back(load_idx(images, labels));
    EXPECT_TRUE(starts_on_line(loads.back())) << "load " << i;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fedvr::data
