let to_hex s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Bytes_util.of_hex: odd length";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | _ -> invalid_arg "Bytes_util.of_hex: bad digit"
  in
  String.init (n / 2) (fun i ->
      Char.chr ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1]))

let int64_le x =
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.shift_right_logical x (8 * i)) land 0xff))

let int64_of_le s off =
  let acc = ref 0L in
  for i = 7 downto 0 do
    acc :=
      Int64.logor
        (Int64.shift_left !acc 8)
        (Int64.of_int (Char.code s.[off + i]))
  done;
  !acc
