(* Entry point of the repository benchmark (see README.md):

     bench.exe --workload tables|compact-spec|fleet-mixed --seed N
               --seconds S --trace 0|1 --scanatpg PATH --workdir DIR
               [--profile NAME]

   Prints a metadata line and, as the last line of stdout, the result
   object {"correct", "attempted", "failed", "metrics"}. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload tables|compact-spec|fleet-mixed --seed N \
     --seconds S --trace 0|1 --scanatpg PATH --workdir DIR [--profile NAME]";
  exit 2

let parse argv =
  let get = Hashtbl.create 8 in
  let rec go = function
    | [] -> ()
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace get (String.sub k 2 (String.length k - 2)) v;
      go rest
    | _ -> usage ()
  in
  go argv;
  let find k = match Hashtbl.find_opt get k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (find k) with Some n -> n | None -> usage () in
  let seconds =
    match float_of_string_opt (find "seconds") with
    | Some s when s > 0. -> s
    | _ -> usage ()
  in
  {
    Common.workload = find "workload";
    seed = int "seed";
    seconds;
    traced = (match find "trace" with "0" -> false | "1" -> true | _ -> usage ());
    scanatpg = find "scanatpg";
    workdir = find "workdir";
    profile = Option.value (Hashtbl.find_opt get "profile") ~default:"dev";
  }

let () =
  (* an interrupted run still stops the processes it started *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> raise Common.Interrupted)))
    [ Sys.sigterm; Sys.sigint ];
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  match o.workload with
  | "tables" -> Tables.run o
  | "compact-spec" -> Compact_spec.run o
  | "fleet-mixed" -> Fleet_mixed.run o
  | w ->
    Printf.eprintf "perfbench: unknown workload %S\n" w;
    exit 2
