include Hashtbl.Make (Int)
