(* A [@cdna.hot] binding inside a submodule must resolve for hot callers
   under its innermost-module name, mirroring Sim.Stats.Histogram.add. *)

module Histo = struct
  type t = { mutable n : int; mutable sum : int }

  let[@cdna.hot] bump t v =
    t.n <- t.n + 1;
    t.sum <- t.sum + v
end

module Rec_a = struct
  let[@cdna.hot] double x = x * 2
end

let[@cdna.hot] record t v =
  Histo.bump t (Rec_a.double v);
  Histo.bump t v
