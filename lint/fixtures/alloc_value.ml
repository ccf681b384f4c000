(* A hot body that allocates nothing itself but hands a non-hot
   allocating function to a hot combinator as a value: the allocation
   is reachable, reported in [box] with the chain from [boxed_apply]. *)
let[@cdna.hot] apply f x = f x

let box x = Some x

let[@cdna.hot] boxed_apply x = ignore (apply box x)
