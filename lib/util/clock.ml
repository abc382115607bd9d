external now : unit -> (float[@unboxed])
  = "ndetect_clock_monotonic_byte" "ndetect_clock_monotonic"
[@@noalloc]
