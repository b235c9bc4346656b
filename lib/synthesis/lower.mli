(** Lowering of individual TIR codelets to device-IR statement lists.

    Performs the code-generation chores of the Figure 5 pipeline: argument
    linking (fresh register namespaces per inlined instance, container
    parameters linked to global ranges or per-thread registers), index
    calculation (guarded global loads through a caller-provided index
    map), shared-memory homing (dynamic/static/accumulator cells with an
    identity-initialisation prologue), barrier insertion after shared
    writes at block-uniform levels, and return materialisation into a
    result register. *)

exception Lower_error of string

val ir_atomic_op : Tir.Ast.atomic_kind -> Device_ir.Ir.atomic_op

(** Combine two device expressions with a reduction operation. *)
val combine_exp :
  Tir.Ast.atomic_kind -> Device_ir.Ir.exp -> Device_ir.Ir.exp -> Device_ir.Ir.exp

(** Apply an assignment operator's combining function. *)
val assign_combine :
  Tir.Ast.assign_op -> Device_ir.Ir.exp -> Device_ir.Ir.exp -> Device_ir.Ir.exp

(** How the codelet's container parameter is linked to actual data. *)
type container_binding =
  | C_global of {
      global_of : Device_ir.Ir.exp -> Device_ir.Ir.exp;
          (** container index -> global element index *)
      bound : Device_ir.Ir.exp;  (** total input length *)
    }
  | C_register of string
      (** finisher codelets reduce per-thread partials held in a register *)

(** Identity element of the reduction over the element type. *)
val identity_of : Tir.Ast.atomic_kind -> Device_ir.Ir.scalar -> float

type lowered_codelet = {
  lc_body : Device_ir.Ir.stmt list;  (** includes the shared-init prologue *)
  lc_shared : Device_ir.Ir.shared_decl list;
  lc_result : string;  (** register holding [return]'s value *)
  lc_needs_dynamic : bool;  (** pass blockDim shared elements at launch *)
}

(** Lower one codelet instance. [fresh] supplies globally-unique register
    names; [prefix] namespaces the instance; [csize] is what [in.Size()]
    lowers to. @raise Lower_error on unsupported shapes. *)
val lower_codelet :
  fresh:(string -> string) ->
  prefix:string ->
  op:Tir.Ast.atomic_kind ->
  elem:Device_ir.Ir.scalar ->
  binding:container_binding ->
  csize:Device_ir.Ir.exp ->
  Passes.Driver.variant ->
  lowered_codelet

(** The identity as a literal of the element type (integer reductions get
    [int] literals). *)
val identity_exp : Tir.Ast.atomic_kind -> Device_ir.Ir.scalar -> Device_ir.Ir.exp
