#ifndef RICD_TABLE_TABLE_IO_H_
#define RICD_TABLE_TABLE_IO_H_

#include <string>

#include "common/result.h"
#include "common/status.h"
#include "table/click_table.h"

namespace ricd::table {

/// Writes `table` as comma-separated "user,item,clicks" rows with a header
/// line.
Status WriteCsv(const ClickTable& table, const std::string& path);

/// Reads a file produced by WriteCsv (a header line is auto-detected and
/// skipped; blank lines are ignored). Any malformed row fails the whole read
/// with Corruption, naming the line number.
Result<ClickTable> ReadCsv(const std::string& path);

/// Writes a compact binary image (magic + row count + raw columns). Roughly
/// 5x faster to load than CSV; used for caching generated workloads.
Status WriteBinary(const ClickTable& table, const std::string& path);

/// Reads a binary image written by WriteBinary, validating magic and size.
Result<ClickTable> ReadBinary(const std::string& path);

}  // namespace ricd::table

#endif  // RICD_TABLE_TABLE_IO_H_
