(* Tier-1 coverage for the golden-trace differential matrix: every cell
   is regenerated and byte-compared against its checked-in golden under
   test/goldens/ (the dune rule declares the directory as a dep), and
   regenerating a cell twice in one process must be byte-identical — the
   determinism the goldens rest on. *)

module Matrix = Aitf_workload.Matrix

let check = Alcotest.check
let checkb = check Alcotest.bool
let checki = check Alcotest.int

let run_only ids = Matrix.run ~only:ids ~goldens_dir:"goldens" ()

(* The two chain cells: the smallest matrix cells that exercise both
   engines end to end, for the repeated-run and agreement checks. *)
let cell_ids =
  [
    "chain-packet-pristine-calm-vanilla"; "chain-hybrid-pristine-calm-vanilla";
  ]

let test_goldens_match () =
  let s = Matrix.run ~goldens_dir:"goldens" () in
  checki "every cell ran" (List.length Matrix.cells)
    (List.length s.Matrix.s_results);
  List.iter
    (fun r ->
      checkb
        (r.Matrix.cr_cell.Matrix.id ^ " matches its golden")
        true
        (r.Matrix.cr_status = Matrix.Match))
    s.Matrix.s_results;
  checki "no drift" 0 s.Matrix.s_drifted;
  checki "no missing golden" 0 s.Matrix.s_missing

(* A cell with no golden on disk is missing, not drifted: the summary
   keeps the two apart. *)
let test_missing_not_drifted () =
  let dir = Filename.temp_dir "aitf-goldens" "" in
  let s = Matrix.run ~only:[ List.hd cell_ids ] ~goldens_dir:dir () in
  Sys.rmdir dir;
  checki "one missing" 1 s.Matrix.s_missing;
  checki "none drifted" 0 s.Matrix.s_drifted

let test_regeneration_deterministic () =
  let doc_of id =
    match (run_only [ id ]).Matrix.s_results with
    | [ r ] -> r.Matrix.cr_doc
    | _ -> Alcotest.fail ("cell did not run: " ^ id)
  in
  List.iter
    (fun id ->
      checkb (id ^ " regenerates byte-identically") true
        (String.equal (doc_of id) (doc_of id)))
    cell_ids

let test_engine_agreement () =
  let s = run_only cell_ids in
  let gated = List.filter (fun p -> p.Matrix.pr_gated) s.Matrix.s_pairs in
  checkb "chain pair is gated" true (gated <> []);
  List.iter
    (fun p ->
      checkb
        (Printf.sprintf "%s %s within %.0f%%" p.Matrix.pr_base
           p.Matrix.pr_metric
           (100. *. Matrix.agreement_threshold))
        true p.Matrix.pr_ok)
    gated;
  checki "no gated disagreement" 0 s.Matrix.s_disagreements

let test_cell_ids_well_formed () =
  (* Ids are the golden filenames; they must be unique and spell out the
     five dimensions, plus a -shard<N> suffix when the cell pins a
     parallel shard count. *)
  let ids = List.map (fun c -> c.Matrix.id) Matrix.cells in
  checki "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun c ->
      checkb (c.Matrix.id ^ " composed of its dims") true
        (c.Matrix.id
        = String.concat "-"
            [
              c.Matrix.topo; c.Matrix.engine; c.Matrix.fault;
              c.Matrix.adversary; c.Matrix.placement;
            ]
          ^
          if c.Matrix.shards > 1 then
            Printf.sprintf "-shard%d" c.Matrix.shards
          else ""))
    Matrix.cells;
  checkb "a smoke subset exists" true
    (List.exists (fun c -> c.Matrix.smoke) Matrix.cells)

let () =
  Alcotest.run "aitf_matrix"
    [
      ( "goldens",
        [
          Alcotest.test_case "cells match checked-in goldens" `Quick
            test_goldens_match;
          Alcotest.test_case "regeneration deterministic" `Quick
            test_regeneration_deterministic;
          Alcotest.test_case "missing is not drifted" `Quick
            test_missing_not_drifted;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "packet vs hybrid goodput" `Quick
            test_engine_agreement;
        ] );
      ( "cells",
        [
          Alcotest.test_case "ids well-formed" `Quick
            test_cell_ids_well_formed;
        ] );
    ]
