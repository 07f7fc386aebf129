package obs

// Interval is one sample of the per-interval time series: the machine's
// counter deltas over SampleInterval simulated cycles, with the derived
// rates precomputed. The series covers the whole run — warmup included —
// so predictor warmup cliffs and mis-speculation bursts that the end-of-run
// aggregate hides are visible.
//
// Raw counts and derived rates are both present: rates for plotting, raw
// counts so downstream tools (cmd/loostrace) can re-aggregate exactly.
// loosim writes the series as JSON Lines through IntervalJSONL.
type Interval struct {
	Index      int   `json:"index"`
	StartCycle int64 `json:"start_cycle"`
	EndCycle   int64 `json:"end_cycle"`

	Retired uint64  `json:"retired"`
	IPC     float64 `json:"ipc"`

	Branches       uint64  `json:"branches"`
	Mispredicts    uint64  `json:"mispredicts"`
	MispredictRate float64 `json:"mispredict_rate"`

	Loads      uint64  `json:"loads"`
	L1Misses   uint64  `json:"l1_misses"`
	L2Misses   uint64  `json:"l2_misses"`
	L1MissRate float64 `json:"l1_miss_rate"`
	L2MissRate float64 `json:"l2_miss_rate"`

	// IQOccupancy is the mean instruction-queue population over the
	// interval's cycles.
	IQOccupancy float64 `json:"iq_occupancy"`

	// Operand delivery (DRA): raw per-path counts and the Figure 9 shares.
	OperandsRead     uint64  `json:"operands_read"`
	OperandPreRead   uint64  `json:"op_preread"`
	OperandForwarded uint64  `json:"op_forwarded"`
	OperandCRC       uint64  `json:"op_crc"`
	OperandMisses    uint64  `json:"op_misses"`
	PreReadShare     float64 `json:"op_preread_share"`
	ForwardShare     float64 `json:"op_forward_share"`
	CRCShare         float64 `json:"op_crc_share"`
	MissShare        float64 `json:"op_miss_share"`

	OperandReissues uint64 `json:"operand_reissues"`
	DataReissues    uint64 `json:"data_reissues"`
	SquashedIssued  uint64 `json:"squashed_issued"`
	UselessWork     uint64 `json:"useless_work"`
}

// Cycles returns the interval's length in simulated cycles.
func (iv Interval) Cycles() int64 { return iv.EndCycle - iv.StartCycle }

// IntervalSink receives the interval time series in index order.
type IntervalSink interface {
	Interval(iv Interval)
}

// IntervalFunc adapts a function to the IntervalSink interface.
type IntervalFunc func(Interval)

// Interval calls f.
func (f IntervalFunc) Interval(iv Interval) {
	// simlint:ignore ifacedispatch adapter type: the indirection IS the sanctioned IntervalSink seam
	f(iv)
}
