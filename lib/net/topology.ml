type node_id = int

type t = { node_list : node_id list; pick : src:node_id -> dst:node_id -> Link.t }

let nodes t = t.node_list
let mem t id = List.mem id t.node_list

let link t ~src ~dst =
  if not (mem t src) then invalid_arg "Topology.link: unknown source node";
  if not (mem t dst) then invalid_arg "Topology.link: unknown destination node";
  if src = dst then Link.perfect else t.pick ~src ~dst

let full_mesh ~n link =
  if n <= 0 then invalid_arg "Topology.full_mesh: n must be positive";
  { node_list = List.init n Fun.id; pick = (fun ~src:_ ~dst:_ -> link) }

let clusters ~sizes ~local ~long_haul =
  if sizes = [] || List.exists (fun s -> s <= 0) sizes then
    invalid_arg "Topology.clusters: sizes must be positive";
  let assignment =
    List.concat (List.mapi (fun cluster size -> List.init size (fun _ -> cluster)) sizes)
  in
  let tagged = List.mapi (fun node cluster -> (node, cluster)) assignment in
  let gateway_path = Link.compose local (Link.compose long_haul local) in
  let pick ~src ~dst =
    let c1 = List.assoc src tagged and c2 = List.assoc dst tagged in
    if c1 = c2 then local else gateway_path
  in
  { node_list = List.map fst tagged; pick }
