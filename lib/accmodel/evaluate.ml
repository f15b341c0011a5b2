module Tech = Archspec.Technology
module Arch = Archspec.Arch
module Link = Archspec.Link
module Level = Mapspace.Level

type breakdown = {
  mac_energy : float;
  register_energy : float;
  sram_energy : float;
  dram_energy : float;
}

type t = {
  arch : Arch.t;
  counts : Counts.t;
  energy_pj : float;
  energy_per_mac : float;
  breakdown : breakdown;
  compute_cycles : float;
  sram_cycles : float;
  dram_cycles : float;
  comm : Link.occupancy list;
  binding : string;
  cycles : float;
  ipc : float;
}

(* [fits] and [check_capacities] share these predicates.  Each keeps the
   [not (x > cap)] form so a NaN footprint passes here, as it always has,
   and is caught by the degeneracy checks of [of_counts]. *)
let registers_fit arch counts =
  not (Counts.reg_words_per_pe counts > float_of_int arch.Arch.registers_per_pe)

let sram_fits arch counts =
  not (Counts.sram_words_used counts > float_of_int arch.Arch.sram_words)

let pes_fit arch counts = not (counts.Counts.pes_used > arch.Arch.pe_count)

let fits arch counts =
  registers_fit arch counts && sram_fits arch counts && pes_fit arch counts

let check_capacities arch counts =
  if not (registers_fit arch counts) then
    Error
      (Printf.sprintf "register tile needs %g words, PE has %d"
         (Counts.reg_words_per_pe counts) arch.Arch.registers_per_pe)
  else if not (sram_fits arch counts) then
    Error
      (Printf.sprintf "SRAM tile needs %g words, SRAM has %d"
         (Counts.sram_words_used counts) arch.Arch.sram_words)
  else if not (pes_fit arch counts) then
    Error
      (Printf.sprintf "mapping uses %d PEs, architecture has %d"
         counts.Counts.pes_used arch.Arch.pe_count)
  else Ok ()

(* Per-level, per-direction link occupancies (DESIGN §16), in the
   canonical channel order: dram-rd, dram-wr, noc-rd, noc-wr, then the
   per-PE register operand stream.  Burst counts quantize each copy of
   the schedule to whole bursts; the register path has no burst
   structure and streams fractionally.  The timed refsim re-derives the
   same totals by literally walking the copy schedule and aggregates
   them through the same {!Link} helpers, so uncontended answers agree
   bit-for-bit. *)
let comm_channels tech counts =
  let links = tech.Tech.links in
  let bursts ?rw_only ~level link =
    Counts.boundary_bursts ?rw_only counts ~level
      ~burst_words:link.Link.burst_words
  in
  let dram = Level.dram_temporal_level and noc = Level.pe_temporal_level in
  let shared =
    [
      Link.occupancy "dram-rd" links.Link.dram
        ~words:(Counts.dram_to_sram counts)
        ~bursts:(bursts ~level:dram links.Link.dram);
      Link.occupancy "dram-wr" links.Link.dram
        ~words:(Counts.sram_to_dram counts)
        ~bursts:(bursts ~rw_only:true ~level:dram links.Link.dram);
      Link.occupancy "noc-rd" links.Link.noc
        ~words:(Counts.sram_to_reg counts)
        ~bursts:(bursts ~level:noc links.Link.noc);
      Link.occupancy "noc-wr" links.Link.noc
        ~words:(Counts.reg_to_sram counts)
        ~bursts:(bursts ~rw_only:true ~level:noc links.Link.noc);
    ]
  in
  let reg =
    Link.stream_occupancy "reg" links.Link.reg
      ~words:(4.0 *. counts.Counts.macs /. float_of_int counts.Counts.pes_used)
  in
  (shared, reg)

let of_counts ?(comm = Link.Overlapped) ?(contention = false) tech arch counts =
  match check_capacities arch counts with
  | Error _ as e -> e
  | Ok () ->
    let eps_r = Arch.register_energy tech arch in
    let eps_s = Arch.sram_energy tech arch in
    let eps_d = tech.Tech.energy_dram in
    let macs = counts.Counts.macs in
    let s2r = Counts.sram_to_reg counts in
    let r2s = Counts.reg_to_sram counts in
    let d2s = Counts.dram_to_sram counts in
    let s2d = Counts.sram_to_dram counts in
    let mac_energy = ((4.0 *. eps_r) +. tech.Tech.energy_mac) *. macs in
    let register_energy = eps_r *. (s2r +. r2s) in
    let sram_energy = eps_s *. (s2r +. r2s +. d2s +. s2d) in
    let dram_energy = eps_d *. (d2s +. s2d) in
    let energy_pj = mac_energy +. register_energy +. sram_energy +. dram_energy in
    let compute_cycles = macs /. float_of_int counts.Counts.pes_used in
    let sram_cycles = (s2r +. r2s +. d2s +. s2d) /. tech.Tech.sram_bandwidth in
    let dram_cycles = (d2s +. s2d) /. tech.Tech.dram_bandwidth in
    let comm_occs, cycles, binding =
      match comm with
      | Link.Overlapped ->
        let cycles =
          Float.max compute_cycles (Float.max sram_cycles dram_cycles)
        in
        let binding =
          Link.binding
            [
              ("compute", compute_cycles);
              ("sram", sram_cycles);
              ("dram", dram_cycles);
            ]
        in
        ([], cycles, binding)
      | Link.Comm_aware ->
        let shared, reg = comm_channels tech counts in
        let cycles, binding =
          Link.comm_cycles ~contention ~compute:compute_cycles ~shared ~reg
        in
        (shared @ [ reg ], cycles, binding)
    in
    (* Degenerate nests (overflowed trip-count products, zero-trip
       mappings) would otherwise produce NaN/inf records through the
       [energy / macs] and [macs / cycles] divisions below. *)
    if not (Float.is_finite macs && macs > 0.0) then
      Error (Printf.sprintf "degenerate nest: MAC count %g is not finite and positive" macs)
    else if not (Float.is_finite cycles && cycles > 0.0) then
      Error (Printf.sprintf "degenerate nest: cycle count %g is not finite and positive" cycles)
    else if not (Float.is_finite energy_pj) then
      Error (Printf.sprintf "degenerate nest: energy %g is not finite" energy_pj)
    else
      Ok
        {
          arch;
          counts;
          energy_pj;
          energy_per_mac = energy_pj /. macs;
          breakdown = { mac_energy; register_energy; sram_energy; dram_energy };
          compute_cycles;
          sram_cycles;
          dram_cycles;
          comm = comm_occs;
          binding;
          cycles;
          ipc = macs /. cycles;
        }

let evaluate ?comm ?contention tech arch nest mapping =
  match Counts.compute nest mapping with
  | Error _ as e -> e
  | Ok counts -> of_counts ?comm ?contention tech arch counts

let energy t = t.energy_pj

let ipc t = t.ipc

let pp ppf t =
  Format.fprintf ppf
    "@[<v>energy %.4g pJ (%.3f pJ/MAC): mac %.3g, reg %.3g, sram %.3g, dram %.3g@,\
     cycles %.4g (compute %.4g, sram %.4g, dram %.4g), IPC %.2f, PEs %d"
    t.energy_pj t.energy_per_mac t.breakdown.mac_energy t.breakdown.register_energy
    t.breakdown.sram_energy t.breakdown.dram_energy t.cycles t.compute_cycles
    t.sram_cycles t.dram_cycles t.ipc t.counts.Counts.pes_used;
  (* Communication-aware runs append the per-link breakdown; overlapped
     output stays byte-identical to the pre-communication-model report. *)
  if t.comm <> [] then begin
    Format.fprintf ppf "@,links:";
    List.iter
      (fun (o : Link.occupancy) ->
        Format.fprintf ppf " %s %.4g cyc (%g w, %g bursts)" o.Link.chan
          o.Link.busy o.Link.words o.Link.bursts)
      t.comm;
    Format.fprintf ppf "@,binding: %s" t.binding
  end;
  Format.fprintf ppf "@]"
