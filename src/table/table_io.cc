#include "table/table_io.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/string_util.h"

namespace ricd::table {
namespace {

constexpr char kBinaryMagic[8] = {'R', 'I', 'C', 'D', 'T', 'B', 'L', '1'};

}  // namespace

Status WriteCsv(const ClickTable& table, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << "user,item,clicks\n";
  for (size_t i = 0; i < table.num_rows(); ++i) {
    out << table.user(i) << ',' << table.item(i) << ',' << table.clicks(i)
        << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<ClickTable> ReadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for read: " + path);
  ClickTable out;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv = TrimString(line);
    if (sv.empty()) continue;
    if (line_no == 1 && sv.starts_with("user")) continue;  // header
    const auto fields = SplitString(sv, ',');
    if (fields.size() != 3) {
      return Status::Corruption(
          StringPrintf("%s:%zu: expected 3 fields, got %zu", path.c_str(),
                       line_no, fields.size()));
    }
    int64_t user = 0;
    int64_t item = 0;
    uint64_t clicks = 0;
    if (!ParseInt64(fields[0], &user) || !ParseInt64(fields[1], &item) ||
        !ParseUint64(fields[2], &clicks) || clicks > 0xffffffffULL) {
      return Status::Corruption(
          StringPrintf("%s:%zu: malformed row", path.c_str(), line_no));
    }
    out.Append(user, item, static_cast<ClickCount>(clicks));
  }
  return out;
}

Status WriteBinary(const ClickTable& table, const std::string& path) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  const uint64_t n = table.num_rows();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(table.user_column().data()),
            static_cast<std::streamsize>(n * sizeof(UserId)));
  out.write(reinterpret_cast<const char*>(table.item_column().data()),
            static_cast<std::streamsize>(n * sizeof(ItemId)));
  out.write(reinterpret_cast<const char*>(table.click_column().data()),
            static_cast<std::streamsize>(n * sizeof(ClickCount)));
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<ClickTable> ReadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  char magic[sizeof(kBinaryMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!in) return Status::Corruption("truncated header in " + path);

  std::vector<UserId> users(n);
  std::vector<ItemId> items(n);
  std::vector<ClickCount> clicks(n);
  in.read(reinterpret_cast<char*>(users.data()),
          static_cast<std::streamsize>(n * sizeof(UserId)));
  in.read(reinterpret_cast<char*>(items.data()),
          static_cast<std::streamsize>(n * sizeof(ItemId)));
  in.read(reinterpret_cast<char*>(clicks.data()),
          static_cast<std::streamsize>(n * sizeof(ClickCount)));
  if (!in) return Status::Corruption("truncated columns in " + path);

  ClickTable out;
  out.Reserve(n);
  for (uint64_t i = 0; i < n; ++i) out.Append(users[i], items[i], clicks[i]);
  return out;
}

}  // namespace ricd::table
