(* Tests for aitf_stats: series, summaries, tables. *)

module Series = Aitf_stats.Series
module Summary = Aitf_stats.Summary
module Table = Aitf_stats.Table

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checks = check Alcotest.string
let checkf = check (Alcotest.float 1e-9)

(* --- Series ----------------------------------------------------------------- *)

let test_series_points_in_order () =
  let s = Series.create ~name:"s" () in
  Series.add s ~time:1.0 10.;
  Series.add s ~time:2.0 20.;
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 0.) (Alcotest.float 0.)))
    "points" [ (1.0, 10.); (2.0, 20.) ] (Series.points s);
  checki "length" 2 (Series.length s);
  checkb "last" true (Series.last s = Some (2.0, 20.));
  checks "name" "s" (Series.name s)

let test_series_rejects_backwards_time () =
  let s = Series.create () in
  Series.add s ~time:5.0 1.;
  checkb "raises" true
    (try
       Series.add s ~time:4.0 1.;
       false
     with Invalid_argument _ -> true)

let test_series_resample_hold () =
  let s = Series.create () in
  Series.add s ~time:0.5 10.;
  Series.add s ~time:2.1 20.;
  let r = Series.resample s ~step:1.0 ~until:4.0 in
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) (Alcotest.float 1e-9)))
    "sample and hold"
    [ (0., 0.); (1., 10.); (2., 10.); (3., 20.); (4., 20.) ]
    r

let test_series_stats () =
  let s = Series.create () in
  List.iter (fun (t, v) -> Series.add s ~time:t v) [ (0., 1.); (1., 5.); (2., 3.) ];
  checkf "max" 5. (Series.max_value s);
  checkf "mean" 3. (Series.mean_value s);
  checkf "empty max" 0. (Series.max_value (Series.create ()))

(* --- Summary ----------------------------------------------------------------- *)

let test_summary_basic () =
  let s = Summary.of_list [ 1.; 2.; 3.; 4.; 5. ] in
  checki "n" 5 s.Summary.n;
  checkf "mean" 3. s.Summary.mean;
  checkf "min" 1. s.Summary.min;
  checkf "max" 5. s.Summary.max;
  checkf "median" 3. s.Summary.p50

let test_summary_empty () =
  let s = Summary.of_list [] in
  checki "n" 0 s.Summary.n;
  checkf "mean" 0. s.Summary.mean

let test_summary_percentiles () =
  let sorted = Array.init 100 (fun i -> float_of_int (i + 1)) in
  checkf "p50" 50. (Summary.percentile sorted 0.5);
  checkf "p90" 90. (Summary.percentile sorted 0.9);
  checkf "p99" 99. (Summary.percentile sorted 0.99);
  checkf "p100" 100. (Summary.percentile sorted 1.0);
  checkb "empty raises" true
    (try
       ignore (Summary.percentile [||] 0.5);
       false
     with Invalid_argument _ -> true);
  checkb "q out of range" true
    (try
       ignore (Summary.percentile sorted 1.5);
       false
     with Invalid_argument _ -> true)

let test_summary_stddev () =
  let s = Summary.of_list [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  checkb "stddev = 2" true (Float.abs (s.Summary.stddev -. 2.) < 1e-9)

(* --- Histogram ---------------------------------------------------------------- *)

module Histogram = Aitf_stats.Histogram

let test_histogram_bucketing () =
  let h = Histogram.create ~bounds:[ 1.; 10.; 100. ] in
  List.iter (Histogram.add h) [ 0.5; 1.0; 5.; 50.; 500. ];
  checki "total" 5 (Histogram.count h);
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 0.) Alcotest.int))
    "buckets"
    [ (1., 2.0 |> int_of_float |> fun _ -> 2); (10., 1); (100., 1);
      (infinity, 1) ]
    (Histogram.buckets h)

let test_histogram_validation () =
  checkb "empty rejected" true
    (try ignore (Histogram.create ~bounds:[]); false
     with Invalid_argument _ -> true);
  checkb "unsorted rejected" true
    (try ignore (Histogram.create ~bounds:[ 2.; 1. ]); false
     with Invalid_argument _ -> true)

let test_histogram_log_bounds () =
  let b = Histogram.log_bounds ~lo:0.001 ~hi:1.0 ~per_decade:1 in
  checki "one per decade spans 3 decades + endpoint" 4 (List.length b);
  checkb "ascending" true (List.sort Float.compare b = b)

let test_histogram_render () =
  let h = Histogram.create ~bounds:[ 1.; 10. ] in
  List.iter (Histogram.add h) [ 0.5; 0.6; 5. ];
  let s = Histogram.render ~width:10 h in
  checkb "mentions buckets" true
    (String.length s > 0
    && List.length (String.split_on_char '\n' s) >= 2)

(* --- Table ----------------------------------------------------------------- *)

let test_table_render_alignment () =
  let t = Table.create ~title:"demo" ~columns:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22222" ];
  let s = Table.render t in
  checkb "has title" true
    (String.length s > 0
    &&
    let lines = String.split_on_char '\n' s in
    List.exists (fun l -> l = "== demo ==") lines);
  (* Every data line must have the same width. *)
  let widths =
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.length l > 0 && l.[0] = '|')
    |> List.map String.length
  in
  checkb "aligned" true
    (match widths with [] -> false | w :: rest -> List.for_all (( = ) w) rest)

let test_table_bad_row () =
  let t = Table.create ~title:"x" ~columns:[ "a"; "b" ] in
  checkb "wrong arity rejected" true
    (try
       Table.add_row t [ "only-one" ];
       false
     with Invalid_argument _ -> true)

let test_table_rowf () =
  let t = Table.create ~title:"x" ~columns:[ "a"; "b"; "c" ] in
  Table.add_rowf t "%d|%s|%.2f" 1 "two" 3.0;
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "split on pipes"
    [ [ "1"; "two"; "3.00" ] ]
    (Table.rows t)

let test_table_csv () =
  let t = Table.create ~title:"x" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "plain"; "with,comma" ];
  Table.add_row t [ "with\"quote"; "ok" ];
  checks "csv quoting" "a,b\nplain,\"with,comma\"\n\"with\"\"quote\",ok\n"
    (Table.to_csv t)

let test_table_cells () =
  checks "float" "3.142" (Table.cell_float ~digits:4 3.14159);
  checks "int" "42" (Table.cell_int 42);
  checks "bool" "yes" (Table.cell_bool true);
  checks "ratio" "1/4 (25.0%)" (Table.cell_ratio 1. 4.);
  checks "ratio div0" "1/0" (Table.cell_ratio 1. 0.)

let () =
  Alcotest.run "aitf_stats"
    [
      ( "series",
        [
          Alcotest.test_case "points order" `Quick test_series_points_in_order;
          Alcotest.test_case "time monotone" `Quick
            test_series_rejects_backwards_time;
          Alcotest.test_case "resample" `Quick test_series_resample_hold;
          Alcotest.test_case "stats" `Quick test_series_stats;
        ] );
      ( "summary",
        [
          Alcotest.test_case "basic" `Quick test_summary_basic;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "percentiles" `Quick test_summary_percentiles;
          Alcotest.test_case "stddev" `Quick test_summary_stddev;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucketing" `Quick test_histogram_bucketing;
          Alcotest.test_case "validation" `Quick test_histogram_validation;
          Alcotest.test_case "log bounds" `Quick test_histogram_log_bounds;
          Alcotest.test_case "render" `Quick test_histogram_render;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render_alignment;
          Alcotest.test_case "bad row" `Quick test_table_bad_row;
          Alcotest.test_case "rowf" `Quick test_table_rowf;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
    ]
