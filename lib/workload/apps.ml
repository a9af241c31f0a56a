let app ~name ~description ~runtime_s ~overhead_pct ~reads ~writes ~metadata
    ~small ~spawns ~compute_ms =
  {
    Spec.w_name = name;
    w_description = description;
    w_paper_runtime_s = runtime_s;
    w_paper_overhead_pct = overhead_pct;
    w_counts =
      (fun ~scale ->
        {
          Spec.reads_8k = Spec.scaled reads ~scale;
          writes_8k = Spec.scaled writes ~scale;
          metadata = Spec.scaled metadata ~scale;
          small_ios = Spec.scaled small ~scale;
          spawns = Spec.scaled spawns ~scale;
          compute_ms = compute_ms *. scale;
        });
  }

let amanda =
  app ~name:"amanda" ~description:"gamma-ray telescope simulation"
    ~runtime_s:1150. ~overhead_pct:1.1 ~reads:800_000 ~writes:60_000
    ~metadata:150_000 ~small:20_000 ~spawns:0 ~compute_ms:1_146_000.

let blast =
  app ~name:"blast" ~description:"genomic database search" ~runtime_s:1050.
    ~overhead_pct:5.2 ~reads:3_500_000 ~writes:20_000 ~metadata:600_000
    ~small:100_000 ~spawns:0 ~compute_ms:1_036_000.

let cms =
  app ~name:"cms" ~description:"high-energy physics detector simulation"
    ~runtime_s:900. ~overhead_pct:2.1 ~reads:1_200_000 ~writes:100_000
    ~metadata:220_000 ~small:30_000 ~spawns:0 ~compute_ms:894_000.

let hf =
  app ~name:"hf" ~description:"nucleic and electronic interaction simulation"
    ~runtime_s:400. ~overhead_pct:6.5 ~reads:150_000 ~writes:1_000_000
    ~metadata:600_000 ~small:50_000 ~spawns:0 ~compute_ms:393_000.

let ibis =
  app ~name:"ibis" ~description:"climate simulation" ~runtime_s:800.
    ~overhead_pct:0.7 ~reads:400_000 ~writes:50_000 ~metadata:40_000
    ~small:10_000 ~spawns:0 ~compute_ms:798_000.

let make_build =
  app ~name:"make" ~description:"software build (parrot itself)"
    ~runtime_s:40. ~overhead_pct:35.0 ~reads:30_000 ~writes:20_000
    ~metadata:616_000 ~small:100_000 ~spawns:1300 ~compute_ms:18_000.

let all = [ amanda; blast; cms; hf; ibis; make_build ]
