let data_limit_symbols = 16384
let tid_position = 16384
let cid_position = 16385
let cst_position = 16386

let xpair_base = 16387

let xpair_position ~boundary_t_sn =
  if boundary_t_sn < 0 then invalid_arg "Invariant.xpair_position";
  (2 * boundary_t_sn) + xpair_base

let symbols_per_element ~size = (size + 3) / 4

let size_symbols ~size = if size < 4 || size mod 4 <> 0 then 0 else size / 4

let check_size ~size =
  if size < 4 then Error "Invariant: element size must be >= 4 bytes"
  else if size mod 4 <> 0 then
    Error "Invariant: element size must be a multiple of 4"
  else Ok (size / 4)

let data_symbol ~size ~t_sn =
  let spw = size_symbols ~size in
  let pos = t_sn * spw in
  if spw = 0 || t_sn < 0 || pos + spw > data_limit_symbols then -1 else pos

let data_position ~size ~t_sn =
  match check_size ~size with
  | Error _ as e -> e
  | Ok _ ->
      let pos = data_symbol ~size ~t_sn in
      if t_sn < 0 then Error "Invariant: negative T.SN"
      else if pos < 0 then Error "Invariant: TPDU data exceeds 16384 symbols"
      else Ok pos

let max_tpdu_elems ~size =
  match check_size ~size with
  | Error _ -> 0
  | Ok spw -> data_limit_symbols / spw
