module Runtime = Dcp_core.Runtime
module Store = Dcp_stable.Store
module Metrics = Dcp_sim.Metrics
module Branch = Dcp_bank.Branch
module Transfer = Dcp_bank.Transfer
module Flight = Dcp_airline.Flight
module Replica = Dcp_primitives.Replica
module Reconcile = Dcp_primitives.Reconcile
module Register = Dcp_primitives.Register
module Scd = Dcp_primitives.Scd

type t = {
  name : string;
  check : Runtime.world -> (unit, string) result;
}

let check_all oracles world =
  List.fold_left
    (fun acc oracle ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
          match oracle.check world with
          | Ok () -> Ok ()
          | Error reason -> Error (Printf.sprintf "%s: %s" oracle.name reason)))
    (Ok ()) oracles

let ( let* ) = Result.bind

(* Every guardian of the definition, with its store, failing if any store
   is still crashed: oracles run after the chaos schedule has restored all
   nodes, so a crashed store means the scenario ended mid-outage. *)
let live_stores world ~def_name =
  let stores =
    List.map (fun g -> Runtime.guardian_store g) (Runtime.find_guardians world ~def_name)
  in
  if List.exists Store.is_crashed stores then
    Error (Printf.sprintf "a %s store is still crashed at check time" def_name)
  else Ok stores

(* ---- stable storage ---- *)

(* Runs over every guardian store in the world: the disk-fault plane
   touches all of them, and a store whose recovered table no longer matches
   replay of its own checkpoint + log is damage the application oracles
   might not notice (e.g. a key no scenario invariant happens to read). *)
let stable_durability =
  {
    name = "stable_durability";
    check =
      (fun world ->
        List.fold_left
          (fun acc g ->
            let* () = acc in
            let store = Runtime.guardian_store g in
            if Store.is_crashed store then Ok ()  (* mid-outage: checked after restart *)
            else
              match Store.durability_check store with
              | Ok () -> Ok ()
              | Error reason ->
                  Error
                    (Printf.sprintf "guardian %d (%s): %s" (Runtime.guardian_id g)
                       (Runtime.guardian_def_name g) reason))
          (Ok ())
          (Runtime.all_guardians world));
  }

(* ---- bank ---- *)

type bank_transfer = {
  tid : int;
  from_branch : int;
  from_account : string;
  to_branch : int;
  to_account : string;
  amount : int;
  mutable observed : string;
}

let bank_quiescent =
  {
    name = "bank_quiescent";
    check =
      (fun world ->
        match Transfer.incomplete_transfers world with
        | 0 -> Ok ()
        | n -> Error (Printf.sprintf "%d transfer sagas still open" n));
  }

let bank_conservation ~expected_total =
  {
    name = "bank_conservation";
    check =
      (fun world ->
        let* stores = live_stores world ~def_name:Branch.def_name in
        let total = List.fold_left (fun acc s -> acc + Branch.total_in_store s) 0 stores in
        if total = expected_total then Ok ()
        else Error (Printf.sprintf "balances sum to %d, expected %d" total expected_total));
  }

(* Ground truth for one transfer, replayed from the branches' durable
   response records. *)
type commit_decision = Untouched | Committed | Refunded | Lost of string

let decision stores entry =
  let withdraw_id, deposit_id, refund_id = Transfer.step_request_ids ~tid:entry.tid in
  let response branch request_id = Branch.recorded_response stores.(branch) ~request_id in
  match response entry.from_branch withdraw_id with
  | None -> Untouched  (* the request never reached the source branch *)
  | Some "ok" -> (
      match response entry.to_branch deposit_id with
      | Some "ok" -> Committed
      | _ -> (
          match response entry.from_branch refund_id with
          | Some "ok" -> Refunded
          | _ ->
              Lost
                (Printf.sprintf "transfer %d: withdraw committed but neither deposit nor refund did"
                   entry.tid)))
  | Some _ -> Untouched  (* insufficient / no_account: nothing was applied *)

let bank_model ~initial ~ledger ?(model_skips = 0) () =
  {
    name = "bank_model";
    check =
      (fun world ->
        let* stores = live_stores world ~def_name:Branch.def_name in
        let stores = Array.of_list stores in
        let model = Hashtbl.create 16 in
        List.iter (fun (branch, account, opening) -> Hashtbl.replace model (branch, account) opening) initial;
        let entries = List.rev !ledger in  (* the driver prepends; replay in issue order *)
        let apply entry =
          let adjust branch account delta =
            let key = (branch, account) in
            let balance = Option.value (Hashtbl.find_opt model key) ~default:0 in
            Hashtbl.replace model key (balance + delta)
          in
          adjust entry.from_branch entry.from_account (-entry.amount);
          adjust entry.to_branch entry.to_account entry.amount
        in
        let rec replay i = function
          | [] -> Ok ()
          | entry :: rest -> (
              match decision stores entry with
              | Lost reason -> Error reason
              | Untouched ->
                  if String.equal entry.observed "ok" then
                    Error (Printf.sprintf "transfer %d acked ok but never committed" entry.tid)
                  else replay (i + 1) rest
              | Refunded -> replay (i + 1) rest
              | Committed ->
                  if String.equal entry.observed "insufficient" then
                    Error (Printf.sprintf "transfer %d acked insufficient but committed" entry.tid)
                  else begin
                    if i >= model_skips then apply entry;
                    replay (i + 1) rest
                  end)
        in
        let* () = replay 0 entries in
        (* Check model entries in (branch, account) order so a multi-account
           divergence always reports the same verdict text. *)
        let entries =
          Hashtbl.fold (fun key expected acc -> (key, expected) :: acc) model []
          |> List.sort (fun ((b1, a1), _) ((b2, a2), _) ->
                 let c = Int.compare b1 b2 in
                 if c <> 0 then c else String.compare a1 a2)
        in
        List.fold_left
          (fun acc ((branch, account), expected) ->
            let* () = acc in
            match Branch.balance_in_store stores.(branch) ~account with
            | Some actual when actual = expected -> Ok ()
            | Some actual ->
                Error
                  (Printf.sprintf "branch %d account %s holds %d, model says %d" branch account
                     actual expected)
            | None -> Error (Printf.sprintf "branch %d account %s missing" branch account))
          (Ok ()) entries);
  }

(* ---- replica ---- *)

(* Anti-entropy has converged iff every live replica mirrors the same
   key → stamp table ([Replica.table_in_store] is sorted by key, so plain
   structural comparison is the convergence predicate).  Value equality
   follows from stamp equality: last-writer-wins only stores a value under
   the stamp that won, so two replicas agreeing on every stamp agree on
   every value. *)
let replica_tables_equal stores =
  match List.map Replica.table_in_store stores with
  | [] | [ _ ] -> Ok ()
  | reference :: rest ->
      let entry_to_string (key, stamp) =
        Printf.sprintf "%s@%s" key (Reconcile.stamp_to_string stamp)
      in
      let entry_equal (k1, s1) (k2, s2) =
        String.equal k1 k2 && Reconcile.stamp_compare s1 s2 = 0
      in
      (* Report only the first differing entry: at 100+ replicas a full
         table dump would drown the verdict, and the first difference is
         deterministic because tables are key-sorted. *)
      let rec first_difference a b =
        match (a, b) with
        | [], [] -> "none"
        | e :: _, [] -> Printf.sprintf "%s missing" (entry_to_string e)
        | [], e :: _ -> Printf.sprintf "%s extra" (entry_to_string e)
        | e1 :: r1, e2 :: r2 ->
            if entry_equal e1 e2 then first_difference r1 r2
            else Printf.sprintf "%s vs %s" (entry_to_string e1) (entry_to_string e2)
      in
      let rec first_divergence i = function
        | [] -> Ok ()
        | table :: rest ->
            if List.equal entry_equal reference table then first_divergence (i + 1) rest
            else
              Error
                (Printf.sprintf
                   "replica %d diverges from replica 0 (%d vs %d keys; first: %s)" i
                   (List.length table) (List.length reference)
                   (first_difference reference table))
      in
      first_divergence 1 rest

let replica_convergence =
  {
    name = "replica_convergence";
    check =
      (fun world ->
        let* stores = live_stores world ~def_name:Replica.def_name in
        replica_tables_equal stores);
  }

let replica_sync_budget ~budget =
  {
    name = "replica_sync_budget";
    check =
      (fun world ->
        let reg = Runtime.metrics world in
        let over = Metrics.count (Metrics.counter reg Replica.metric_over_budget) in
        let max_bytes =
          int_of_float (Metrics.gauge_value (Metrics.gauge reg Replica.metric_max_bytes))
        in
        if over > 0 then
          Error (Printf.sprintf "%d sync messages exceeded the %d-byte budget" over budget)
        else if max_bytes > budget then
          Error (Printf.sprintf "largest sync message was %d bytes, budget %d" max_bytes budget)
        else Ok ());
  }

(* ---- register / snapshot ---- *)

let linearizable ~clients =
  {
    name = "linearizable";
    check =
      (fun world ->
        let* stores = live_stores world ~def_name:clients in
        let events = List.concat_map Linearize.events_in_store stores in
        if events = [] then Error "no operation was recorded"
        else Linearize.check events);
  }

(* Same convergence predicate as the replica oracle, over the SCD objects'
   durable LWW tables ([Register.Table.in_store] is key-sorted; ts
   agreement implies value agreement because a value is only stored under
   the ts that won it). *)
let table_convergence ~def_name =
  {
    name = "table_convergence";
    check =
      (fun world ->
        let* stores = live_stores world ~def_name in
        match List.map Register.Table.in_store stores with
        | [] | [ _ ] -> Ok ()
        | reference :: rest ->
            let entry_to_string (key, (clock, origin)) =
              Printf.sprintf "%s@%d.%d" key clock origin
            in
            let entry_equal (k1, t1) (k2, t2) =
              String.equal k1 k2 && Scd.ts_compare t1 t2 = 0
            in
            let rec first_difference a b =
              match (a, b) with
              | [], [] -> "none"
              | e :: _, [] -> Printf.sprintf "%s missing" (entry_to_string e)
              | [], e :: _ -> Printf.sprintf "%s extra" (entry_to_string e)
              | e1 :: r1, e2 :: r2 ->
                  if entry_equal e1 e2 then first_difference r1 r2
                  else Printf.sprintf "%s vs %s" (entry_to_string e1) (entry_to_string e2)
            in
            let rec first_divergence i = function
              | [] -> Ok ()
              | table :: rest ->
                  if List.equal entry_equal reference table then first_divergence (i + 1) rest
                  else
                    Error
                      (Printf.sprintf
                         "member %d diverges from member 0 (%d vs %d keys; first: %s)" i
                         (List.length table) (List.length reference)
                         (first_difference reference table))
            in
            first_divergence 1 rest);
  }

(* ---- airline ---- *)

let group_by_date pairs =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (date, passenger) ->
      let existing = Option.value (Hashtbl.find_opt table date) ~default:[] in
      Hashtbl.replace table date (passenger :: existing))
    pairs;
  table

let airline_seat_ledger ~capacity ~waitlist_capacity =
  {
    name = "airline_seat_ledger";
    check =
      (fun world ->
        let flights = Runtime.find_guardians world ~def_name:Flight.def_name in
        List.fold_left
          (fun acc g ->
            let* () = acc in
            let store = Runtime.guardian_store g in
            if Store.is_crashed store then Ok ()  (* mid-outage stores are checked next run *)
            else begin
              let ledger = Flight.ledger_of_store store in
              let check_dates table bound what dedup =
                (* Dates in ascending order: the first offending date is the
                   one reported, independent of hash layout. *)
                Hashtbl.fold (fun date passengers acc -> (date, passengers) :: acc) table []
                |> List.sort (fun (d1, _) (d2, _) -> Int.compare d1 d2)
                |> List.fold_left
                     (fun acc (date, passengers) ->
                       let* () = acc in
                       if List.length passengers > bound then
                         Error
                           (Printf.sprintf "flight %d date %d %s: %d of %d"
                              (Runtime.guardian_id g) date what (List.length passengers) bound)
                       else if
                         dedup
                         && List.length (List.sort_uniq String.compare passengers)
                            <> List.length passengers
                       then
                         Error (Printf.sprintf "flight %d date %d has a duplicated passenger"
                                  (Runtime.guardian_id g) date)
                       else Ok ())
                     (Ok ())
              in
              let* () = check_dates (group_by_date ledger.Flight.reserved) capacity "overbooked" true in
              check_dates (group_by_date ledger.Flight.waitlisted) waitlist_capacity
                "waitlist overflow" false
            end)
          (Ok ()) flights);
  }

let itinerary_atomicity ~outcomes =
  {
    name = "itinerary_atomicity";
    check =
      (fun world ->
        let* stores = live_stores world ~def_name:Flight.def_name in
        let ledgers = List.map Flight.ledger_of_store stores in
        let passenger_sets =
          List.map
            (fun ledger ->
              let set = Hashtbl.create 32 in
              List.iter (fun (_date, p) -> Hashtbl.replace set p ()) ledger.Flight.reserved;
              set)
            ledgers
        in
        (* all-or-nothing: a passenger seen on any flight must be on all *)
        let* () =
          let passengers_of set =
            List.sort String.compare (Hashtbl.fold (fun p () acc -> p :: acc) set [])
          in
          List.fold_left
            (fun acc set ->
              let* () = acc in
              List.fold_left
                (fun acc passenger ->
                  let* () = acc in
                  if List.for_all (fun other -> Hashtbl.mem other passenger) passenger_sets then
                    Ok ()
                  else Error (Printf.sprintf "%s holds some legs but not all" passenger))
                acc (passengers_of set))
            (Ok ()) passenger_sets
        in
        (* every client told "booked" really holds its seats *)
        let* () =
          List.fold_left
            (fun acc (passenger, outcome) ->
              let* () = acc in
              if
                String.equal outcome "booked"
                && not (List.for_all (fun set -> Hashtbl.mem set passenger) passenger_sets)
              then Error (Printf.sprintf "%s was told booked but holds no seat" passenger)
              else Ok ())
            (Ok ()) !outcomes
        in
        let holds = List.fold_left (fun acc l -> acc + l.Flight.open_holds) 0 ledgers in
        if holds = 0 then Ok () else Error (Printf.sprintf "%d dangling holds" holds));
  }
