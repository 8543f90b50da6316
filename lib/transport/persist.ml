open Labelling

(* Persisted endpoint state (paper §3.2 made durable): the receiver's
   recoverable state is nothing but WSC-2 parities, virtual-reassembly
   spans, the ACK ledger and the placed bytes — compact enough to
   snapshot wholesale and journal per acknowledgement.  Everything here
   is a plain value; the live transport exports to and restores from
   these images ([Chunk_transport.Receiver.export] / [.restore],
   [Multi.export] / [.restore]). *)

type corrob_image = {
  pi_t_id : int;
  pi_delta_data : int option;
  pi_delta_ed : int option;
  pi_confirmed : bool;
  pi_stash : (bytes * int * int) list;
  pi_placed_runs : (int * int) list;
}

type receiver_image = {
  ri_conn : int;
  ri_placed : (int * bytes) list;
  ri_verified : (int * int) list;
  ri_end_confirmed : int option;
  ri_end_claims : (int * int) list;
  ri_last_reack : (int * float) list;
  ri_passed : int;
  ri_tpdus : Edc.Verifier.tpdu_image list;
  ri_corrob : corrob_image list;
}

type sender_image = {
  si_first_tid : int;
  si_acked : int list;
  si_srtt : float option;
  si_rttvar : float;
  si_rto_cur : float;
  si_tpdu_elems : int;
}

type single_image = { s_acked : int list; s_rx : receiver_image }

type conn_image = {
  ci_id : int;
  ci_acked : int list;
  ci_hist : (bytes * bool * int option) list;
  ci_live : receiver_image option;
  ci_live_open : int option;
  (* containment state (Multi's anomaly quarantine): a boxed or
     poisoned peer must not earn a fresh admission by crashing the
     endpoint *)
  ci_quar_until : float;
  ci_quar_count : int;
  ci_poisoned : bool;
}

type endpoint_image = Single of single_image | Multi of conn_image list

type run_view = int * bytes * int * int

type event =
  | Acked of {
      conn : int;
      t_id : int;
      end_confirmed : int option;
      runs : run_view list;
    }
  | Opened of { conn : int; open_csn : int option }
  | Archived of int
  | Closed of int

let owned_run sn b = (sn, b, 0, Bytes.length b)

(* The (C.SN, bytes) run a view denotes, copied out of its source
   unless the view already covers all of it. *)
let run_bytes (sn, src, off, len) =
  if off = 0 && len = Bytes.length src then (sn, src)
  else (sn, Bytes.sub src off len)

let empty_receiver ~conn =
  {
    ri_conn = conn;
    ri_placed = [];
    ri_verified = [];
    ri_end_confirmed = None;
    ri_end_claims = [];
    ri_last_reack = [];
    ri_passed = 0;
    ri_tpdus = [];
    ri_corrob = [];
  }

(* The one run-merge rule: sort (sn, len) spans by SN and fuse
   overlapping or adjacent ones, dropping empty spans. *)
let coalesce_spans spans =
  let rec go acc = function
    | [] -> List.rev acc
    | (s, l) :: rest -> (
        match acc with
        | (s0, l0) :: acc' when s <= s0 + l0 ->
            go ((s0, Int.max l0 (s + l - s0)) :: acc') rest
        | _ -> go ((s, l) :: acc) rest)
  in
  List.filter (fun (_, l) -> l > 0) spans
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> go []

let spans_of_runs ~elem_size runs =
  List.map (fun (sn, b) -> (sn, Bytes.length b / elem_size)) runs

(* Merge placed byte runs into the canonical shape [Placement.spans]
   exports, so export(restore(image)) = image holds structurally: the
   spans are merged first, then each run's bytes are copied once into
   their merged span, later runs in the list winning on overlap
   (identical-label retransmission makes overlapping bytes identical
   anyway).  Bytes short of a whole element are dropped. *)
let normalize_runs ~elem_size runs =
  let spans = Array.of_list (coalesce_spans (spans_of_runs ~elem_size runs)) in
  let out = Array.map (fun (_, l) -> Bytes.create (l * elem_size)) spans in
  (* the merged span holding element [sn]: the last one starting at or
     before it *)
  let rec find lo hi sn =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if fst spans.(mid) <= sn then find mid hi sn else find lo mid sn
  in
  List.iter
    (fun (sn, b) ->
      let n = Bytes.length b / elem_size * elem_size in
      if n > 0 then begin
        let k = find 0 (Array.length spans) sn in
        Bytes.blit b 0 out.(k) ((sn - fst spans.(k)) * elem_size) n
      end)
    runs;
  Array.to_list (Array.mapi (fun k (s, _) -> (s, out.(k))) spans)

(* Apply one journal entry to an image.  Conservative throughout: an
   entry for an unknown connection creates it (acknowledged state is
   durable even if the Open record was torn away), and nothing here can
   raise. *)
let merge_spans existing fresh =
  let tr = Vreassembly.create () in
  List.iter
    (fun (sn, len) ->
      match Vreassembly.insert_new tr ~sn ~len ~st:false with
      | Ok _ | Error `Inconsistent -> ())
    (existing @ fresh);
  Vreassembly.spans tr

(* During replay the lists an ACK grows are kept newest first and
   unmerged — ledgers consed, placed runs rev-appended — and
   [apply_journal] puts each into canonical shape once, at the end:
   merging after every record would re-copy the whole accumulated
   image, quadratic in the journal length. *)
let apply_acked ~elem_size ri ~t_id ~end_confirmed ~runs =
  let runs = List.map run_bytes runs in
  {
    ri with
    ri_placed = List.rev_append runs ri.ri_placed;
    ri_verified = merge_spans ri.ri_verified (spans_of_runs ~elem_size runs);
    ri_end_confirmed =
      (match end_confirmed with Some _ as e -> e | None -> ri.ri_end_confirmed);
    ri_end_claims = List.filter (fun (t, _) -> t <> t_id) ri.ri_end_claims;
    ri_passed = ri.ri_passed + 1;
    ri_tpdus =
      List.filter (fun ti -> ti.Edc.Verifier.ti_t_id <> t_id) ri.ri_tpdus;
    ri_corrob = List.filter (fun pi -> pi.pi_t_id <> t_id) ri.ri_corrob;
  }

(* The end of the contiguous verified prefix — mirrors the live
   receiver's completeness rule so an archived epoch reconstructed from
   a journal reports the same [complete] bit. *)
let verified_frontier spans =
  let rec go expect = function
    | [] -> expect
    | (s, l) :: rest -> if s > expect then expect else go (Int.max expect (s + l)) rest
  in
  go 0 spans

let receiver_complete ri =
  match ri.ri_end_confirmed with
  | Some last -> verified_frontier ri.ri_verified > last
  | None -> false

(* [ri] is mid-replay: its placed runs are newest first. *)
let receiver_delivered ~elem_size ~quota_elems ri =
  let buf = Bytes.make (quota_elems * elem_size) '\000' in
  List.iter
    (fun (sn, b) ->
      let off = sn * elem_size in
      if off >= 0 && off + Bytes.length b <= Bytes.length buf then
        Bytes.blit b 0 buf off (Bytes.length b))
    (List.rev ri.ri_placed);
  buf

let apply_event ~elem_size ~quota_elems image ev =
  match (image, ev) with
  | Single s, Acked { conn; t_id; end_confirmed; runs } ->
      if conn <> s.s_rx.ri_conn then image
      else
        Single
          {
            s_acked = t_id :: s.s_acked;
            s_rx = apply_acked ~elem_size s.s_rx ~t_id ~end_confirmed ~runs;
          }
  | Single _, (Opened _ | Archived _ | Closed _) -> image
  | Multi conns, ev ->
      let cid =
        match ev with
        | Acked { conn; _ } | Opened { conn; _ } | Archived conn | Closed conn
          ->
            conn
      in
      let conns =
        if List.exists (fun c -> c.ci_id = cid) conns then conns
        else
          (* keep the canonical ascending order [export] produces, so a
             journal-only image compares equal to a re-export *)
          List.sort
            (fun a b -> Int.compare a.ci_id b.ci_id)
            ({
               ci_id = cid;
               ci_acked = [];
               ci_hist = [];
               ci_live = None;
               ci_live_open = None;
               ci_quar_until = 0.0;
               ci_quar_count = 0;
               ci_poisoned = false;
             }
            :: conns)
      in
      let update c =
        if c.ci_id <> cid then c
        else
          match ev with
          | Acked { t_id; end_confirmed; runs; _ } ->
              let live =
                match c.ci_live with
                | Some ri -> ri
                | None -> empty_receiver ~conn:cid
              in
              {
                c with
                ci_acked = t_id :: c.ci_acked;
                ci_live =
                  Some (apply_acked ~elem_size live ~t_id ~end_confirmed ~runs);
                (* identity recovery under the monotone-label
                   discipline: each fresh ACK bounds the epoch's first
                   C.SN from above, so the running minimum converges on
                   it — covering epochs whose Open died in flight and
                   never produced an Opened record *)
                ci_live_open =
                  Some
                    (match c.ci_live_open with
                    | Some k -> min k t_id
                    | None -> t_id);
              }
          | Opened { open_csn; _ } ->
              (* A second Opened record while an epoch is live is an
                 adoption: the epoch was established implicitly (its Open
                 lost in flight) and this is its identity finally
                 arriving.  Keep the replayed receiver state — only the
                 C.SN changes. *)
              let live =
                match c.ci_live with
                | Some _ as l -> l
                | None -> Some (empty_receiver ~conn:cid)
              in
              { c with ci_live = live; ci_live_open = open_csn }
          | Archived _ -> (
              match c.ci_live with
              | None -> c
              | Some ri ->
                  let hist =
                    if ri.ri_passed > 0 then
                      c.ci_hist
                      @ [
                          ( receiver_delivered ~elem_size ~quota_elems ri,
                            receiver_complete ri,
                            c.ci_live_open );
                        ]
                    else c.ci_hist
                  in
                  { c with ci_hist = hist; ci_live = None; ci_live_open = None })
          | Closed _ -> (
              (* Close archives first on the live side; a bare Closed
                 record (torn Archive) still drops the live epoch. *)
              match c.ci_live with
              | None -> c
              | Some ri ->
                  let hist =
                    if ri.ri_passed > 0 then
                      c.ci_hist
                      @ [
                          ( receiver_delivered ~elem_size ~quota_elems ri,
                            receiver_complete ri,
                            c.ci_live_open );
                        ]
                    else c.ci_hist
                  in
                  { c with ci_hist = hist; ci_live = None; ci_live_open = None })
      in
      Multi (List.map update conns)

let apply_journal ~elem_size ~quota_elems image events =
  let placed f ri = { ri with ri_placed = f ri.ri_placed } in
  let newest_first = placed List.rev in
  let canonical = placed (fun r -> normalize_runs ~elem_size (List.rev r)) in
  let ledger = List.sort_uniq Int.compare in
  let start =
    match image with
    | Single s -> Single { s with s_rx = newest_first s.s_rx }
    | Multi conns ->
        Multi
          (List.map
             (fun c -> { c with ci_live = Option.map newest_first c.ci_live })
             conns)
  in
  match List.fold_left (apply_event ~elem_size ~quota_elems) start events with
  | Single s -> Single { s_acked = ledger s.s_acked; s_rx = canonical s.s_rx }
  | Multi conns ->
      Multi
        (List.map
           (fun c ->
             {
               c with
               ci_acked = ledger c.ci_acked;
               ci_live = Option.map canonical c.ci_live;
             })
           conns)

(* {1 Binary codec}

   Everything rides on [Wire]'s checksummed record framing.  The field
   codec below never raises on decode: every read is bounds-checked and
   surfaces [Error]. *)

(* v2: conn images gained the containment fields (quarantine deadline,
   admission-revocation count, poisoned flag) *)
let version = 2
let magic = "CSNP"

let w_int buf v = Buffer.add_int64_be buf (Int64.of_int v)

let w_bool buf v = Buffer.add_char buf (if v then '\001' else '\000')

(* The IEEE bits go to the wire whole.  Bouncing them through an OCaml
   int (as [w_int] would) truncates to 63 bits and the reader's
   sign-extension then negates any float with magnitude >= 2.0 — the
   quarantine deadline was the first persisted float to cross that. *)
let w_float buf v = Buffer.add_int64_be buf (Int64.bits_of_float v)

let w_bytes buf b =
  w_int buf (Bytes.length b);
  Buffer.add_bytes buf b

let w_string buf s = w_bytes buf (Bytes.of_string s)

let w_opt w buf = function
  | None -> w_bool buf false
  | Some v ->
      w_bool buf true;
      w buf v

let w_list w buf l =
  w_int buf (List.length l);
  List.iter (w buf) l

let w_parity buf p = Buffer.add_bytes buf (Wsc2.parity_to_bytes p)

type cur = { b : bytes; mutable off : int }

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let need c n =
  if n < 0 || c.off < 0 || Bytes.length c.b - c.off < n then
    Error "Persist: truncated field"
  else Ok ()

let r_int c =
  let* () = need c 8 in
  let v = Int64.to_int (Bytes.get_int64_be c.b c.off) in
  c.off <- c.off + 8;
  Ok v

let r_bool c =
  let* () = need c 1 in
  let v = Bytes.get c.b c.off <> '\000' in
  c.off <- c.off + 1;
  Ok v

let r_float c =
  let* () = need c 8 in
  let v = Int64.float_of_bits (Bytes.get_int64_be c.b c.off) in
  c.off <- c.off + 8;
  Ok v

let r_bytes c =
  let* n = r_int c in
  let* () = need c n in
  let b = Bytes.sub c.b c.off n in
  c.off <- c.off + n;
  Ok b

let r_string c =
  let* b = r_bytes c in
  Ok (Bytes.to_string b)

let r_opt r c =
  let* present = r_bool c in
  if present then
    let* v = r c in
    Ok (Some v)
  else Ok None

let r_list r c =
  let* n = r_int c in
  (* every element costs at least one byte, so a count beyond the
     remaining bytes can only come from corruption *)
  let* () = need c (max n 0) in
  let rec go k acc =
    if k = 0 then Ok (List.rev acc)
    else
      let* v = r c in
      go (k - 1) (v :: acc)
  in
  if n < 0 then Error "Persist: negative count" else go n []

let r_parity c =
  let* () = need c 8 in
  let p = Wsc2.parity_of_bytes c.b c.off in
  c.off <- c.off + 8;
  Ok p

let w_pair wa wb buf (a, b) =
  wa buf a;
  wb buf b

let r_pair ra rb c =
  let* a = ra c in
  let* b = rb c in
  Ok (a, b)

let w_tpdu buf (ti : Edc.Verifier.tpdu_image) =
  w_int buf ti.ti_t_id;
  w_parity buf ti.ti_parity;
  w_list (w_pair w_int w_int) buf ti.ti_spans;
  w_opt w_int buf ti.ti_total;
  w_list w_int buf ti.ti_pairs;
  w_list (w_pair w_int w_int) buf ti.ti_x_deltas;
  w_opt w_int buf ti.ti_delta_ct;
  w_opt w_int buf ti.ti_c_id;
  w_opt w_int buf ti.ti_size;
  w_bool buf ti.ti_labels_done;
  w_opt w_parity buf ti.ti_expected;
  w_opt w_string buf ti.ti_damage;
  w_list
    (fun buf (a, b, cc, d) ->
      w_int buf a;
      w_int buf b;
      w_int buf cc;
      w_int buf d)
    buf ti.ti_x_spans

let r_tpdu c =
  let* ti_t_id = r_int c in
  let* ti_parity = r_parity c in
  let* ti_spans = r_list (r_pair r_int r_int) c in
  let* ti_total = r_opt r_int c in
  let* ti_pairs = r_list r_int c in
  let* ti_x_deltas = r_list (r_pair r_int r_int) c in
  let* ti_delta_ct = r_opt r_int c in
  let* ti_c_id = r_opt r_int c in
  let* ti_size = r_opt r_int c in
  let* ti_labels_done = r_bool c in
  let* ti_expected = r_opt r_parity c in
  let* ti_damage = r_opt r_string c in
  let* ti_x_spans =
    r_list
      (fun c ->
        let* a = r_int c in
        let* b = r_int c in
        let* cc = r_int c in
        let* d = r_int c in
        Ok (a, b, cc, d))
      c
  in
  Ok
    {
      Edc.Verifier.ti_t_id;
      ti_parity;
      ti_spans;
      ti_total;
      ti_pairs;
      ti_x_deltas;
      ti_delta_ct;
      ti_c_id;
      ti_size;
      ti_labels_done;
      ti_expected;
      ti_damage;
      ti_x_spans;
    }

let w_corrob buf pi =
  w_int buf pi.pi_t_id;
  w_opt w_int buf pi.pi_delta_data;
  w_opt w_int buf pi.pi_delta_ed;
  w_bool buf pi.pi_confirmed;
  w_list
    (fun buf (b, t_sn, elems) ->
      w_bytes buf b;
      w_int buf t_sn;
      w_int buf elems)
    buf pi.pi_stash;
  w_list (w_pair w_int w_int) buf pi.pi_placed_runs

let r_corrob c =
  let* pi_t_id = r_int c in
  let* pi_delta_data = r_opt r_int c in
  let* pi_delta_ed = r_opt r_int c in
  let* pi_confirmed = r_bool c in
  let* pi_stash =
    r_list
      (fun c ->
        let* b = r_bytes c in
        let* t_sn = r_int c in
        let* elems = r_int c in
        Ok (b, t_sn, elems))
      c
  in
  let* pi_placed_runs = r_list (r_pair r_int r_int) c in
  Ok { pi_t_id; pi_delta_data; pi_delta_ed; pi_confirmed; pi_stash; pi_placed_runs }

let w_receiver buf ri =
  w_int buf ri.ri_conn;
  w_list (w_pair w_int w_bytes) buf ri.ri_placed;
  w_list (w_pair w_int w_int) buf ri.ri_verified;
  w_opt w_int buf ri.ri_end_confirmed;
  w_list (w_pair w_int w_int) buf ri.ri_end_claims;
  w_list (w_pair w_int w_float) buf ri.ri_last_reack;
  w_int buf ri.ri_passed;
  w_list w_tpdu buf ri.ri_tpdus;
  w_list w_corrob buf ri.ri_corrob

let r_receiver c =
  let* ri_conn = r_int c in
  let* ri_placed = r_list (r_pair r_int r_bytes) c in
  let* ri_verified = r_list (r_pair r_int r_int) c in
  let* ri_end_confirmed = r_opt r_int c in
  let* ri_end_claims = r_list (r_pair r_int r_int) c in
  let* ri_last_reack = r_list (r_pair r_int r_float) c in
  let* ri_passed = r_int c in
  let* ri_tpdus = r_list r_tpdu c in
  let* ri_corrob = r_list r_corrob c in
  Ok
    {
      ri_conn;
      ri_placed;
      ri_verified;
      ri_end_confirmed;
      ri_end_claims;
      ri_last_reack;
      ri_passed;
      ri_tpdus;
      ri_corrob;
    }

let w_hist_entry buf (d, complete, open_csn) =
  w_bytes buf d;
  w_bool buf complete;
  w_opt w_int buf open_csn

let r_hist_entry c =
  let* d = r_bytes c in
  let* complete = r_bool c in
  let* open_csn = r_opt r_int c in
  Ok (d, complete, open_csn)

let w_conn buf ci =
  w_int buf ci.ci_id;
  w_list w_int buf ci.ci_acked;
  w_list w_hist_entry buf ci.ci_hist;
  w_opt w_receiver buf ci.ci_live;
  w_opt w_int buf ci.ci_live_open;
  w_float buf ci.ci_quar_until;
  w_int buf ci.ci_quar_count;
  w_bool buf ci.ci_poisoned

let r_conn c =
  let* ci_id = r_int c in
  let* ci_acked = r_list r_int c in
  let* ci_hist = r_list r_hist_entry c in
  let* ci_live = r_opt r_receiver c in
  let* ci_live_open = r_opt r_int c in
  let* ci_quar_until = r_float c in
  let* ci_quar_count = r_int c in
  let* ci_poisoned = r_bool c in
  Ok
    {
      ci_id;
      ci_acked;
      ci_hist;
      ci_live;
      ci_live_open;
      ci_quar_until;
      ci_quar_count;
      ci_poisoned;
    }

(* record tags *)
let tag_single = 0
let tag_multi = 1
let tag_sender = 2
let tag_acked = 16
let tag_opened = 17
let tag_archived = 18
let tag_closed = 19

let encode_endpoint image =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  Buffer.add_uint16_be buf version;
  let payload = Buffer.create 1024 in
  let tag =
    match image with
    | Single s ->
        w_list w_int payload s.s_acked;
        w_receiver payload s.s_rx;
        tag_single
    | Multi conns ->
        w_list w_conn payload conns;
        tag_multi
  in
  Wire.encode_record buf ~tag payload;
  Buffer.to_bytes buf

let check_image_done c =
  if c.off = Bytes.length c.b then Ok ()
  else Error "Persist: trailing bytes in image"

let decode_endpoint b =
  if Bytes.length b < 6 then Error "Persist: image too short"
  else if Bytes.to_string (Bytes.sub b 0 4) <> magic then
    Error "Persist: bad magic"
  else if Bytes.get_uint16_be b 4 <> version then
    Error "Persist: unsupported snapshot version"
  else
    let* tag, payload, next = Wire.decode_record b 6 in
    if next <> Bytes.length b then Error "Persist: trailing bytes after image"
    else
      let c = { b = payload; off = 0 } in
      if tag = tag_single then begin
        let* s_acked = r_list r_int c in
        let* s_rx = r_receiver c in
        let* () = check_image_done c in
        Ok (Single { s_acked; s_rx })
      end
      else if tag = tag_multi then begin
        let* conns = r_list r_conn c in
        let* () = check_image_done c in
        Ok (Multi conns)
      end
      else Error "Persist: unknown image tag"

let encode_sender si =
  let buf = Buffer.create 128 in
  Buffer.add_string buf magic;
  Buffer.add_uint16_be buf version;
  let payload = Buffer.create 128 in
  w_int payload si.si_first_tid;
  w_list w_int payload si.si_acked;
  w_opt w_float payload si.si_srtt;
  w_float payload si.si_rttvar;
  w_float payload si.si_rto_cur;
  w_int payload si.si_tpdu_elems;
  Wire.encode_record buf ~tag:tag_sender payload;
  Buffer.to_bytes buf

let decode_sender b =
  if Bytes.length b < 6 then Error "Persist: image too short"
  else if Bytes.to_string (Bytes.sub b 0 4) <> magic then
    Error "Persist: bad magic"
  else if Bytes.get_uint16_be b 4 <> version then
    Error "Persist: unsupported snapshot version"
  else
    let* tag, payload, _ = Wire.decode_record b 6 in
    if tag <> tag_sender then Error "Persist: not a sender image"
    else
      let c = { b = payload; off = 0 } in
      let* si_first_tid = r_int c in
      let* si_acked = r_list r_int c in
      let* si_srtt = r_opt r_float c in
      let* si_rttvar = r_float c in
      let* si_rto_cur = r_float c in
      let* si_tpdu_elems = r_int c in
      Ok { si_first_tid; si_acked; si_srtt; si_rttvar; si_rto_cur; si_tpdu_elems }

(* A run view goes to the wire exactly as the owned (C.SN, bytes) pair
   [w_pair w_int w_bytes] writes, copied once out of its source. *)
let w_run buf (sn, src, off, len) =
  w_int buf sn;
  w_int buf len;
  Buffer.add_subbytes buf src off len

let r_run c =
  let* sn = r_int c in
  let* b = r_bytes c in
  Ok (owned_run sn b)

(* Append one journal record to [buf]; [payload] and [scratch] are
   buffers the caller reuses, so a journal's steady state makes no
   per-record major-heap allocation. *)
let encode_event ~payload ~scratch buf ev =
  Buffer.clear payload;
  let tag =
    match ev with
    | Acked { conn; t_id; end_confirmed; runs } ->
        w_int payload conn;
        w_int payload t_id;
        w_opt w_int payload end_confirmed;
        w_list w_run payload runs;
        tag_acked
    | Opened { conn; open_csn } ->
        w_int payload conn;
        w_opt w_int payload open_csn;
        tag_opened
    | Archived conn ->
        w_int payload conn;
        tag_archived
    | Closed conn ->
        w_int payload conn;
        tag_closed
  in
  Wire.encode_record ~scratch buf ~tag payload

let decode_event (tag, payload) =
  let c = { b = payload; off = 0 } in
  if tag = tag_acked then begin
    let* conn = r_int c in
    let* t_id = r_int c in
    let* end_confirmed = r_opt r_int c in
    let* runs = r_list r_run c in
    Ok (Acked { conn; t_id; end_confirmed; runs })
  end
  else if tag = tag_opened then begin
    let* conn = r_int c in
    let* open_csn = r_opt r_int c in
    Ok (Opened { conn; open_csn })
  end
  else if tag = tag_archived then
    let* conn = r_int c in
    Ok (Archived conn)
  else if tag = tag_closed then
    let* conn = r_int c in
    Ok (Closed conn)
  else Error "Persist: unknown journal tag"

(* Journal decode: the checksummed-record layer truncates at the first
   torn record; a record whose checksum passes but whose payload does
   not parse (version skew) also stops replay — everything before it is
   still trusted. *)
let decode_journal b =
  let records, torn = Wire.decode_records b 0 in
  let rec go acc = function
    | [] -> (List.rev acc, torn)
    | r :: rest -> (
        match decode_event r with
        | Ok ev -> go (ev :: acc) rest
        | Error _ -> (List.rev acc, true))
  in
  go [] records

let m_snap_bytes = Obs.Metrics.histogram "persist_snapshot_bytes"
let m_journal_records = Obs.Metrics.counter "persist_journal_records_total"
let m_truncations = Obs.Metrics.counter "persist_journal_truncations_total"
let m_restores = Obs.Metrics.counter "persist_restores_total"
let m_recovery = Obs.Metrics.histogram "persist_recovery_wall_us"

module Store = struct
  type t = {
    mutable snap : bytes option;
    journal : Buffer.t;
    payload : Buffer.t;  (* [encode_event]'s scratch *)
    scratch : Wire.scratch;
    mutable snapshots_taken : int;
    mutable journal_records : int;
  }

  let create () =
    { snap = None; journal = Buffer.create 256; payload = Buffer.create 256;
      scratch = Wire.scratch (); snapshots_taken = 0; journal_records = 0 }

  let snapshot st image =
    let b = encode_endpoint image in
    st.snap <- Some b;
    Buffer.clear st.journal;
    st.snapshots_taken <- st.snapshots_taken + 1;
    if Obs.enabled then Obs.Metrics.observe m_snap_bytes (Bytes.length b)

  let append st ev =
    encode_event ~payload:st.payload ~scratch:st.scratch st.journal ev;
    st.journal_records <- st.journal_records + 1;
    if Obs.enabled then Obs.Metrics.incr m_journal_records

  let snapshots_taken st = st.snapshots_taken
  let journal_records st = st.journal_records
  let snapshot_bytes st = Option.fold ~none:0 ~some:Bytes.length st.snap
  let journal_bytes st = Buffer.length st.journal
  let journal st = Buffer.to_bytes st.journal

  let corrupt_tail st =
    let n = Buffer.length st.journal in
    if n > 0 then begin
      let b = Buffer.to_bytes st.journal in
      Bytes.set b (n - 1) (Char.chr (Char.code (Bytes.get b (n - 1)) lxor 0x55));
      Buffer.clear st.journal;
      Buffer.add_bytes st.journal b
    end

  let recover ~elem_size ~quota_elems ~empty st =
    let* base =
      match st.snap with None -> Ok empty | Some b -> decode_endpoint b
    in
    let events, torn = decode_journal (Buffer.to_bytes st.journal) in
    if torn && Obs.enabled then Obs.Metrics.incr m_truncations;
    if Obs.enabled then Obs.Metrics.incr m_restores;
    Ok (apply_journal ~elem_size ~quota_elems base events, torn)
end
