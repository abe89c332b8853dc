(** CRC-32 (IEEE 802.3 polynomial, reflected).

    The simulator's stand-in for the paper's "redundant information for error
    detection" (§3.3): every packet carries a CRC over its payload, and a
    corrupted packet is recognised and discarded at the receiver. *)

val digest_string : string -> int32

val digest_substring : string -> pos:int -> len:int -> int32
(** CRC of a string slice without copying it out first (the zero-copy
    half of fragmentation). @raise Invalid_argument on out-of-bounds
    slices. *)
