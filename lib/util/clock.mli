(** The monotonic clock. *)

external now : unit -> (float[@unboxed])
  = "ndetect_clock_monotonic_byte" "ndetect_clock_monotonic"
[@@noalloc]
(** Seconds since an arbitrary origin, from
    [clock_gettime(CLOCK_MONOTONIC)]: never decreasing, and unaffected
    when the wall clock is stepped. Only differences between readings
    taken on one host mean anything; a file's age, which compares with
    an mtime that another process wrote, needs wall time instead. *)
