// Planted unchecked-io-return violations: each call is a whole statement,
// so a short read, a refused send or a failed close goes unnoticed. The
// globally qualified ::close is the same call.
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>

namespace fixture {

void Spill(std::FILE* in, int sock, int fd) {
  char buf[64];
  fread(buf, 1, sizeof(buf), in);
  send(sock, buf, sizeof(buf), 0);
  close(sock);
  ::close(fd);
}

}  // namespace fixture
