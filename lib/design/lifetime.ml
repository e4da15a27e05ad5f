type interval = { birth : int; death : int }
type t = interval array

let make ivals =
  Array.iter
    (fun { birth; death } ->
      if birth < 0 || death < birth then invalid_arg "Lifetime.make")
    ivals;
  Array.copy ivals

let num_segments t = Array.length t
let interval t i = t.(i)

let overlap t a b =
  let ia = t.(a) and ib = t.(b) in
  ia.birth <= ib.death && ib.birth <= ia.death

let conflicts t =
  let n = Array.length t in
  let c = ref (Conflict.empty n) in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if overlap t a b then c := Conflict.add !c a b
    done
  done;
  !c

let live_at t step =
  List.filter
    (fun i -> t.(i).birth <= step && step <= t.(i).death)
    (Mm_util.Ints.range (Array.length t))

(* live segments ordered by death: the first one is the next to die *)
module Live = Set.Make (struct
  type t = int * int (* death, segment *)

  let compare = compare
end)

let maximal_cliques t =
  (* the cliques of an interval graph are the live sets at interval
     starts. One sweep over the distinct starts s_1 < ... < s_k: the
     live set at s_j holds a segment born at s_j, so no earlier live set
     contains it, and a later one does iff the next one does, i.e. iff
     none of its segments dies before s_(j+1). The live sets are
     distinct, so sorting them reproduces the deduplicated order. *)
  let n = Array.length t in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare t.(a).birth t.(b).birth) order;
  let rec sweep i live acc =
    if i >= n then acc
    else begin
      let s = t.(order.(i)).birth in
      let rec born i live =
        if i < n && t.(order.(i)).birth = s then
          let d = order.(i) in
          born (i + 1) (Live.add (t.(d).death, d) live)
        else (i, live)
      in
      let i, live = born i live in
      let rec evict live =
        match Live.min_elt_opt live with
        | Some ((death, _) as e) when death < s -> evict (Live.remove e live)
        | _ -> live
      in
      let live = evict live in
      let maximal = i >= n || fst (Live.min_elt live) < t.(order.(i)).birth in
      let members () = List.map snd (Live.elements live) in
      sweep i live
        (if maximal then List.sort Int.compare (members ()) :: acc else acc)
    end
  in
  List.sort compare (sweep 0 Live.empty [])

let max_live_weight t ~weight =
  let clique_weight c = Mm_util.Ints.sum_by weight c in
  Mm_util.Ints.max_by clique_weight (maximal_cliques t)
