// Deliberately non-conforming header: the `ricd_lint_fixture` ctest scans
// this directory with --expect-violations to prove every rule fires.
// Planted here: a wrong include guard and a `using namespace` at header
// scope. Never include this file from real code.
#ifndef WRONG_GUARD_NAME_H
#define WRONG_GUARD_NAME_H

#include <string>

using namespace std;  // planted: no-using-namespace-in-header

int OpenSocket();
int close(int fd);  // shadow of the libc call, for the planted close() below

struct FakeRegistry {
  int* GetCounter(const char* name);
};

#endif  // WRONG_GUARD_NAME_H
