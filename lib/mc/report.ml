(* monet-mc/1: the model checker's machine-readable result format.

   Same discipline as monet-lint/2 and monet-trace/1: the writer builds
   the document with the shared codec (Monet_util.Json), and the
   validator re-parses it against this schema's field spec before
   anything downstream consumes it — the CLI refuses to print a
   document its own validator rejects, so the schema can never drift
   silently. *)

open Monet_util

let json_schema_version = "monet-mc/1"

(* Render one exploration result as a monet-mc/1 document. *)
let to_json (cfg : Model.config) (r : Explore.result) : string =
  let s = r.Explore.r_stats in
  let violation (v : Explore.violation) =
    Json.Obj
      [ ("inv", Json.Str v.Explore.v_inv);
        ("msg", Json.Str v.Explore.v_msg);
        ("depth", Json.int v.Explore.v_depth);
        ("trace",
          Json.Arr
            (List.map (fun a -> Json.Str (Model.action_label a)) v.Explore.v_trace)) ]
  in
  Json.to_string
    (Json.Obj
       [ ("schema", Json.Str json_schema_version);
         ("config",
           Json.Obj
             [ ("balances",
                 Json.Str
                   (Printf.sprintf "%d/%d" cfg.Model.c_bal_a cfg.Model.c_bal_b));
               ("script",
                 Json.Str (String.concat "+" (List.map Model.op_label cfg.Model.c_ops)));
               ("faults", Json.Str (Model.alphabet_label cfg.Model.c_alpha));
               ("max_crashes", Json.int cfg.Model.c_max_crashes);
               ("retx", Json.int cfg.Model.c_retx);
               ("mutation", Json.Str (Model.mutation_label cfg.Model.c_mutation)) ]);
         ("depth", Json.int r.Explore.r_depth);
         ("states", Json.int s.Explore.st_states);
         ("expansions", Json.int s.Explore.st_expansions);
         ("transitions", Json.int s.Explore.st_transitions);
         ("depth_reached", Json.int s.Explore.st_depth_reached);
         ("terminal", Json.int s.Explore.st_terminal);
         ("quiescent", Json.int s.Explore.st_quiescent);
         ("violating", Json.int s.Explore.st_violating);
         ("complete", Json.int (if s.Explore.st_complete then 1 else 0));
         ("violations", Json.Arr (List.map violation r.Explore.r_violations)) ])

let is_inv_id = function
  | Json.Str inv -> String.length inv >= 5 && String.sub inv 0 4 = "INV-"
  | _ -> false

(* Validate a document against the monet-mc/1 shape. *)
let validate_json (s : string) : (unit, string) result =
  Json.Spec.(
    validate
      (Object
         ([ ("schema", tag json_schema_version);
            ("config",
              Object
                [ ("balances", String); ("script", String); ("faults", String);
                  ("mutation", String) ]) ]
         @ List.map
             (fun k -> (k, Count))
             [ "depth"; "states"; "expansions"; "transitions"; "depth_reached";
               "terminal"; "quiescent"; "violating"; "complete" ]
         @ [ ("violations",
               Array
                 (Object
                    [ ("inv", Where (String, "an INV- id", is_inv_id));
                      ("msg", String); ("depth", Count); ("trace", Array String) ]))
           ])))
    s

(* One-paragraph human summary, for the non-JSON CLI path. *)
let summary (cfg : Model.config) (r : Explore.result) : string =
  let s = r.Explore.r_stats in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "mc: %s exploration to depth %d — %d distinct states, %d transitions \
        (%d terminal, %d quiescent)\n"
       (if s.Explore.st_complete then "complete" else "truncated")
       r.Explore.r_depth s.Explore.st_states s.Explore.st_transitions
       s.Explore.st_terminal s.Explore.st_quiescent);
  Buffer.add_string b
    (Printf.sprintf
       "    script %s, faults [%s], max crashes %d, retx budget %d, mutation %s\n"
       (String.concat "+" (List.map Model.op_label cfg.Model.c_ops))
       (Model.alphabet_label cfg.Model.c_alpha)
       cfg.Model.c_max_crashes cfg.Model.c_retx
       (Model.mutation_label cfg.Model.c_mutation));
  if s.Explore.st_violating = 0 then
    Buffer.add_string b "    no invariant violations\n"
  else begin
    Buffer.add_string b
      (Printf.sprintf "    %d violating state(s); shortest counterexamples:\n"
         s.Explore.st_violating);
    List.iter
      (fun (v : Explore.violation) ->
        Buffer.add_string b
          (Printf.sprintf "    [%s] %s\n      depth %d: %s\n" v.Explore.v_inv
             v.Explore.v_msg v.Explore.v_depth
             (String.concat " ; "
                (List.map Model.action_label v.Explore.v_trace))))
      r.Explore.r_violations
  end;
  Buffer.contents b
