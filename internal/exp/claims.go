package exp

import "slices"

// Claim is one number the paper reports, and the Result.Values key
// under which one experiment reports the repo's counterpart. A runner
// prints a claim's Stated text through paper, so each number is written
// here once and nowhere else.
type Claim struct {
	ID, Exp, Key string  // ID is unique; Exp is the Registry id that reports Key
	Source       string  // where in the paper
	Quantity     string  // what is measured, in the units Paper holds
	Population   string  // what the paper averages, or that it does not say
	Paper        float64 // the number; a percentage as a fraction
	Stated       string  // the paper's wording, as the output prints it
}

// Claims is the paper's evaluation as numbers, in Registry order. The
// rows no runner prints (Table 1, Figures 6 and 7) are still the record
// DESIGN §4 renders and the tests pin.
var Claims = []Claim{
	{ID: "table1.path_loss", Exp: "table1", Key: "path_loss_db", Source: "Table 1", Quantity: "optical path loss, dB",
		Population: "one link: the 2 cm worst-case route", Paper: 2.6, Stated: "2.6"},
	{ID: "table1.snr", Exp: "table1", Key: "snr_db", Source: "Table 1", Quantity: "signal-to-noise ratio, dB",
		Population: "one link: the 2 cm worst-case route", Paper: 7.5, Stated: "7.5"},
	{ID: "table1.ber", Exp: "table1", Key: "ber", Source: "Table 1", Quantity: "bit-error rate",
		Population: "one link: the 2 cm worst-case route", Paper: 1e-10, Stated: "1e-10"},
	{ID: "fig4.w", Exp: "fig4", Key: "opt_w_g1", Source: "Fig 4", Quantity: "optimal backoff window W, slots",
		Population: "the paper does not say at which background rate G", Paper: 2.7, Stated: "2.7"},
	{ID: "fig4.b", Exp: "fig4", Key: "opt_b_g1", Source: "Fig 4", Quantity: "optimal backoff base B",
		Population: "the paper does not say at which background rate G", Paper: 1.1, Stated: "1.1"},
	{ID: "fig4.delay", Exp: "fig4", Key: "opt_delay_g1", Source: "Fig 4", Quantity: "mean collision resolution delay at the optimum, cycles",
		Population: "the paper does not say at which background rate G", Paper: 7.26, Stated: "7.26"},
	{ID: "fig5.mode", Exp: "fig5", Key: "mode_frac", Source: "Fig 5", Quantity: "read-miss replies in the modal latency bin",
		Population: "16-node FSOI; the paper does not say how the apps combine or how wide a bin is", Paper: 0.41, Stated: "41%"},
	{ID: "fig6.fsoi", Exp: "fig6", Key: "geomean_fsoi", Source: "Fig 6", Quantity: "FSOI speedup over the mesh",
		Population: "16 nodes, geometric mean over the suite of each app's speedup", Paper: 1.36, Stated: "1.36"},
	{ID: "fig6.L0", Exp: "fig6", Key: "geomean_L0", Source: "Fig 6", Quantity: "L0 speedup over the mesh",
		Population: "16 nodes, geometric mean over the suite of each app's speedup", Paper: 1.43, Stated: "1.43"},
	{ID: "fig6.Lr1", Exp: "fig6", Key: "geomean_Lr1", Source: "Fig 6", Quantity: "Lr1 speedup over the mesh",
		Population: "16 nodes, geometric mean over the suite of each app's speedup", Paper: 1.32, Stated: "1.32"},
	{ID: "fig6.Lr2", Exp: "fig6", Key: "geomean_Lr2", Source: "Fig 6", Quantity: "Lr2 speedup over the mesh",
		Population: "16 nodes, geometric mean over the suite of each app's speedup", Paper: 1.22, Stated: "1.22"},
	{ID: "fig6.latency", Exp: "fig6", Key: "latency_fsoi", Source: "Fig 6", Quantity: "FSOI packet latency, cycles",
		Population: "16 nodes; the paper does not say whether it averages packets or apps", Paper: 7.5, Stated: "~7.5"},
	{ID: "fig7.fsoi", Exp: "fig7", Key: "geomean_fsoi", Source: "Fig 7", Quantity: "FSOI speedup over the mesh",
		Population: "64 nodes, geometric mean over the suite of each app's speedup", Paper: 1.75, Stated: "1.75"},
	{ID: "fig7.L0", Exp: "fig7", Key: "geomean_L0", Source: "Fig 7", Quantity: "L0 speedup over the mesh",
		Population: "64 nodes, geometric mean over the suite of each app's speedup", Paper: 1.91, Stated: "1.91"},
	{ID: "fig7.Lr1", Exp: "fig7", Key: "geomean_Lr1", Source: "Fig 7", Quantity: "Lr1 speedup over the mesh",
		Population: "64 nodes, geometric mean over the suite of each app's speedup", Paper: 1.55, Stated: "1.55"},
	{ID: "fig7.Lr2", Exp: "fig7", Key: "geomean_Lr2", Source: "Fig 7", Quantity: "Lr2 speedup over the mesh",
		Population: "64 nodes, geometric mean over the suite of each app's speedup", Paper: 1.29, Stated: "1.29"},
	{ID: "fig7.latency", Exp: "fig7", Key: "latency_fsoi", Source: "Fig 7", Quantity: "FSOI packet latency, cycles",
		Population: "64 nodes; the paper does not say whether it averages packets or apps", Paper: 12.6, Stated: "~12.6"},
	{ID: "fig8.saving", Exp: "fig8", Key: "avg_saving", Source: "Fig 8", Quantity: "total energy saved against the mesh",
		Population: "16 nodes, mean over the suite", Paper: 0.406, Stated: "40.6%"},
	{ID: "fig8.net_ratio", Exp: "fig8", Key: "net_ratio", Source: "Fig 8", Quantity: "network energy, mesh over FSOI",
		Population: "16 nodes; the paper does not say how the apps combine", Paper: 20, Stated: "~20x"},
	{ID: "fig9.traffic_cut", Exp: "fig9", Key: "traffic_cut", Source: "Fig 9", Quantity: "meta packets that ack elision removes",
		Population: "16 nodes; the paper does not say how the apps combine", Paper: 0.051, Stated: "5.1%"},
	{ID: "fig9.collision_cut", Exp: "fig9", Key: "collision_cut", Source: "Fig 9", Quantity: "meta-lane collisions that ack elision removes",
		Population: "16 nodes; the paper does not say how the apps combine", Paper: 0.315, Stated: "31.5%"},
	{ID: "fig10.rate_off", Exp: "fig10", Key: "rate_off", Source: "Fig 10", Quantity: "data-lane collision rate without the §5.2 optimizations",
		Population: "16 nodes, mean over the suite", Paper: 0.094, Stated: "9.4%"},
	{ID: "fig10.rate_on", Exp: "fig10", Key: "rate_on", Source: "Fig 10", Quantity: "data-lane collision rate with the §5.2 optimizations",
		Population: "16 nodes, mean over the suite", Paper: 0.058, Stated: "5.8%"},
	{ID: "fig10.avoided", Exp: "fig10", Key: "avoided", Source: "Fig 10", Quantity: "data-lane collisions the §5.2 optimizations avoid",
		Population: "16 nodes; the paper does not say how the apps combine", Paper: 0.38, Stated: "~38%"},
	{ID: "hints.accuracy", Exp: "hints", Key: "accuracy", Source: "§7.3", Quantity: "retransmission hints that name the winner",
		Population: "an input, not a measurement: core.PaperConfig draws each hint right with HintAccuracy 0.94, so the repo echoes it", Paper: 0.94, Stated: "94%"},
	{ID: "hints.wrong", Exp: "hints", Key: "wrong", Source: "§7.3", Quantity: "retransmission hints that name a wrong winner",
		Population: "an input, not a measurement: core.PaperConfig draws a wrong winner with WrongWinner 0.023, so the repo echoes it", Paper: 0.023, Stated: "2.3%"},
	{ID: "hints.delay_with", Exp: "hints", Key: "res_data_with", Source: "§7.3", Quantity: "resolution delay with hints, cycles",
		Population: "the data packets that collided; the paper does not say how the apps combine", Paper: 29, Stated: "29"},
	{ID: "hints.delay_without", Exp: "hints", Key: "res_data_without", Source: "§7.3", Quantity: "resolution delay without hints, cycles",
		Population: "the data packets that collided; the paper does not say how the apps combine", Paper: 41, Stated: "41"},
	{ID: "llsc.speedup", Exp: "llsc", Key: "speedup", Source: "§7.3", Quantity: "speedup of ll/sc over the confirmation channel",
		Population: "the synchronization-heavy apps; the paper does not say which mean", Paper: 1.07, Stated: "1.07"},
	{ID: "llsc.meta_cut", Exp: "llsc", Key: "meta_cut", Source: "§7.3", Quantity: "meta packets that ll/sc over the confirmation channel removes",
		Population: "the synchronization-heavy apps; the paper does not say which mean", Paper: 0.11, Stated: "11%"},
	{ID: "llsc.data_cut", Exp: "llsc", Key: "data_cut", Source: "§7.3", Quantity: "data packets that ll/sc over the confirmation channel removes",
		Population: "the synchronization-heavy apps; the paper does not say which mean", Paper: 0.08, Stated: "8%"},
	{ID: "corona.ratio", Exp: "corona", Key: "ratio", Source: "§7.1", Quantity: "FSOI performance over a corona-style crossbar",
		Population: "64 nodes; the paper does not say which mean", Paper: 1.06, Stated: "1.06x"},
	{ID: "layout.vcsels", Exp: "layout", Key: "vcsels_16", Source: "§4.1", Quantity: "transmit VCSELs",
		Population: "16 nodes with dedicated 9-bit arrays: a count, not an average", Paper: 2000, Stated: "~2000"},
	{ID: "layout.area", Exp: "layout", Key: "area_mm2_16", Source: "§4.1", Quantity: "VCSEL area, mm²",
		Population: "16 nodes at a 30 um pitch: an estimate, not an average", Paper: 5, Stated: "~5"},
}

// paper returns the Stated text of the claim id, for a runner's
// "(paper: ...)"; an id the table lacks panics on index -1.
func paper(id string) string {
	return Claims[slices.IndexFunc(Claims, func(c Claim) bool { return c.ID == id })].Stated
}
