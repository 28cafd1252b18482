type axis = Child | Descendant

let axis_to_string = function Child -> "/" | Descendant -> "//"

let is_ancestor (a : Node.t) (d : Node.t) =
  a.Node.start_pos < d.Node.start_pos && d.Node.end_pos < a.Node.end_pos

let is_parent a d = is_ancestor a d && d.Node.level = a.Node.level + 1
let is_descendant d a = is_ancestor a d
let is_child d a = is_parent a d

let related axis ~anc ~desc =
  match axis with
  | Descendant -> is_ancestor anc desc
  | Child -> is_parent anc desc

let disjoint a b = not (is_ancestor a b || is_ancestor b a || a.Node.id = b.Node.id)
let document_order = Node.compare_start
