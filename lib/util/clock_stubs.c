/* The monotonic clock behind Ndetect_util.Clock: clock_gettime with
 * CLOCK_MONOTONIC, which never steps backwards when the wall clock is
 * set. The native stub returns an unboxed double and allocates nothing;
 * the bytecode stub boxes it. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double ndetect_clock_monotonic(value unit) {
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value ndetect_clock_monotonic_byte(value unit) {
  return caml_copy_double(ndetect_clock_monotonic(unit));
}
