(** The Figure 5(b) application models.

    Five scientific applications plus a software build, with system-call
    mixes following the paper's workload characterization: the science
    codes move data in large blocks (AMANDA and CMS simulate detectors,
    BLAST scans a genomic database repeatedly, HF writes heavily, IBIS
    is compute-dominated), while [make] is a storm of small metadata
    operations and child compilers. *)

val amanda : Spec.t
(** Gamma-ray telescope simulation: read-heavy, ~1150 s, paper +1.1 %. *)

val blast : Spec.t
(** Genomic database search: the most read-intensive, ~1050 s, +5.2 %. *)

val cms : Spec.t
(** High-energy physics detector simulation: ~900 s, +2.1 %. *)

val hf : Spec.t
(** Nucleic/electronic interaction simulation: write-heavy, ~400 s, +6.5 %. *)

val ibis : Spec.t
(** Climate simulation: compute-dominated, ~800 s, +0.7 %. *)

val make_build : Spec.t
(** A software build: ~616 k top-level metadata calls plus 1300 child
    compilers, ~40 s, +35 %. *)

val all : Spec.t list
(** In the paper's Figure 5(b) order. *)
