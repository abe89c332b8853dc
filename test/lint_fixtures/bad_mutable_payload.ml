(* Lint fixture: raw mutable values handed to send/reply. *)
let ship ctx port = Runtime.send ctx ~to_:port "data" [| 1; 2; 3 |]
let answer ctx port = Runtime.reply ctx ~to_:port "data" (ref 0)
let slice ctx port b = Runtime.send ctx ~to_:port "data" [ Bytes.sub b 0 1 ]
let join ctx port a b = Runtime.send ctx ~to_:port "data" [ Bytes.cat a b ]
let grid ctx port = Runtime.send ctx ~to_:port "data" [ Array.make 4 0 ]
