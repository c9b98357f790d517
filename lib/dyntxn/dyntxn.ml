(** Umbrella module of the [dyntxn] library: the dynamic transaction
    layer that turns Sinfonia minitransactions into general optimistic
    transactions over objects (Sec. 2.2), extended with dirty reads
    (Sec. 3). *)

module Objref = Objref
module Sizehint = Sizehint
module Objcache = Objcache
module Txn = Txn
