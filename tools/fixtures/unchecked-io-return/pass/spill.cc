// Every I/O result is inspected. A member call named close (a stream's,
// which returns nothing) is not the libc call.
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

namespace fixture {

bool Spill(std::FILE* in, int sock, int fd, std::ofstream& log) {
  char buf[64];
  const size_t got = fread(buf, 1, sizeof(buf), in);
  if (send(sock, buf, got, 0) < 0) return false;
  log.close();
  if (::close(fd) != 0) return false;
  return close(sock) == 0;
}

}  // namespace fixture
