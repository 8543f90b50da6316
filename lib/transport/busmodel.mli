(** The RISC-workstation memory-bus cost model behind the paper's §1
    argument: "buffering requires moving the data twice: once from
    network interface to memory (the buffer) and once from memory to
    the processor.  Because the bus is often a throughput bottleneck
    ... moving data across the bus twice can decrease protocol
    processing throughput."

    Counters are in bytes; a memory-to-memory copy costs two crossings
    (read + write).  The CLM-TOUCH experiment reports crossings per
    delivered byte for each receiver architecture:

    - immediate (ILP) processing: data crosses once, NIC → processor →
      final application location;
    - reorder-then-process: crossing count depends on how much
      disordering occurred;
    - reassemble-then-process: every byte is buffered, copied, and read
      again.

    Reading a packet's cache lines ahead of its processing (the warm
    read of [Multi.ingest_batch], {!Labelling.Wire.Scan.warm}) is not a
    crossing: it fetches the same lines the processor's one read of the
    payload fetches, only earlier, so the bytes still cross once. *)

type t
(** A bus-crossing tally for one receiver architecture. *)

val create : unit -> t
(** A fresh tally at zero crossings. *)

val nic_to_mem : t -> int -> unit
(** DMA of [n] bytes from the interface into host memory (1 crossing per
    byte). *)

val mem_to_cpu : t -> int -> unit
(** Processor reads [n] bytes (1 crossing). *)

val cpu_to_mem : t -> int -> unit
(** Processor writes [n] bytes (1 crossing). *)

val mem_copy : t -> int -> unit
(** Memory-to-memory move of [n] bytes (2 crossings). *)

val crossings : t -> int
(** Total byte-crossings so far. *)

val per_byte : t -> delivered:int -> float
(** [crossings / delivered]. *)

val reset : t -> unit
