let find cell ~cap ~matches ~make =
  match !cell with
  | x :: _ when matches x -> x
  | entries -> (
      match List.find_opt matches entries with
      | Some x ->
          cell := x :: List.filter (fun y -> y != x) entries;
          x
      | None ->
          let x = make () in
          cell := x :: List.filteri (fun i _ -> i < cap - 1) entries;
          x)
