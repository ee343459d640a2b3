(* The rules the benchmark's reported numbers rest on. *)

module S = Perfbench.Stats

let int = Alcotest.(check int)
let flt = Alcotest.(check (float 1e-12))

(* -- the percentile rule ------------------------------------------------ *)

let p99_needs_ten_beyond () =
  int "p99 of 1000 is rank 990" 990 (S.rank ~pct:99 1000);
  int "10 samples beyond p99 of 1000" 10 (S.beyond ~pct:99 1000);
  Alcotest.(check bool) "p99 reportable at 1000" true (S.reportable ~pct:99 1000);
  Alcotest.(check bool) "not at 999" false (S.reportable ~pct:99 999);
  Alcotest.(check bool) "p50 reportable at 20" true (S.reportable ~pct:50 20);
  Alcotest.(check bool) "not at 19" false (S.reportable ~pct:50 19);
  int "p99 needs 1000 samples" 1000 (S.samples_needed ~pct:99);
  int "p50 needs 20 samples" 20 (S.samples_needed ~pct:50)

let beyond_counts_strictly_greater () =
  (* for every n and pct, the rank's sample has exactly [beyond]
     samples after it in a strictly increasing array *)
  List.iter
    (fun n ->
      let a = Array.init n float in
      List.iter
        (fun pct ->
          let v = S.percentile ~pct a in
          let after = Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 a in
          int (Printf.sprintf "n=%d p%d" n pct) (S.beyond ~pct n) after;
          Alcotest.(check bool)
            (Printf.sprintf "n=%d p%d covers pct" n pct)
            true
            (100 * S.rank ~pct n >= pct * n))
        [ 50; 90; 99 ])
    [ 1; 2; 7; 99; 100; 101; 999; 1000; 1001; 4321 ]

let percentile_values () =
  let a = Array.init 1000 (fun i -> float (i + 1)) in
  flt "p50" 500. (S.percentile ~pct:50 a);
  flt "p99" 990. (S.percentile ~pct:99 a);
  flt "p100" 1000. (S.percentile ~pct:100 a);
  flt "single" 7. (S.percentile ~pct:99 [| 7. |]);
  flt "odd median" 2. (S.median [| 3.; 1.; 2. |]);
  flt "even median" 2.5 (S.median [| 4.; 1.; 3.; 2. |])

(* -- closed-loop accounting --------------------------------------------- *)

let accounting_balances () =
  let t = S.tally () in
  for i = 1 to 1000 do
    if i mod 7 = 0 then S.fail t else S.complete t;
    Alcotest.(check bool) "balanced while running" true (S.balanced t)
  done;
  int "attempted" 1000 t.S.attempted;
  int "failed" 142 t.S.failed;
  int "completed" 858 t.S.completed;
  (* lost writes move from completed to failed, never past completed *)
  int "moved" 8 (S.lose t 8);
  Alcotest.(check bool) "balanced after loss" true (S.balanced t);
  int "attempted unchanged" 1000 t.S.attempted;
  int "failed grows" 150 t.S.failed;
  int "clamped" 850 (S.lose t 5000);
  int "nothing left" 0 t.S.completed;
  int "negative is no-op" 0 (S.lose t (-3));
  Alcotest.(check bool) "still balanced" true (S.balanced t)

let failed_ratio_arithmetic () =
  let t = S.tally () in
  flt "empty tally" 0. (S.failed_ratio t);
  flt "empty ok" 1. (S.ok_ratio t);
  for _ = 1 to 30 do S.complete t done;
  for _ = 1 to 10 do S.fail t done;
  flt "10 of 40" 0.25 (S.failed_ratio t);
  flt "ok is the complement" 0.75 (S.ok_ratio t);
  ignore (S.lose t 10);
  flt "lost writes count" 0.5 (S.failed_ratio t);
  flt "ratio with empty base" 0. (S.ratio 5. 0.);
  flt "ratio" 2.5 (S.ratio 5. 2.)

(* -- slices ---------------------------------------------------------------- *)

let slice steal n = { S.dur_s = 1.0; steal_s = steal; cpu_s = 0.01 *. float n; lat = Array.init n Fun.id }

let slice_figures () =
  let s = [| slice 0. 100; slice 0.5 10; slice 0.2 120 |] in
  flt "rate over the whole window" (230. /. 3.) (S.rate s);
  int "pooled samples" 230 (Array.length (S.pooled s));
  flt "cpu per reply" 0.01 (S.cpu_per_reply s);
  flt "no slices, no rate" 0. (S.rate [||]);
  let p =
    S.pooled [| { (slice 0. 0) with lat = [| 5; 9 |] }; { (slice 0. 0) with lat = [| 1; 7 |] } |]
  in
  Alcotest.(check (array int)) "pooled is sorted" [| 1; 5; 7; 9 |] p

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "p99 needs 10 beyond" `Quick p99_needs_ten_beyond;
          Alcotest.test_case "beyond = strictly greater" `Quick
            beyond_counts_strictly_greater;
          Alcotest.test_case "values" `Quick percentile_values;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "attempted = completed + failed" `Quick
            accounting_balances;
          Alcotest.test_case "failed_ratio" `Quick failed_ratio_arithmetic;
        ] );
      ("slices", [ Alcotest.test_case "figures over the window" `Quick slice_figures ]);
    ]
