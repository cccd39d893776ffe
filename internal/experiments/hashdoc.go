package experiments

import (
	"strconv"

	"portsim/internal/config"
	"portsim/internal/jsonwire"
	"portsim/internal/workload"
)

// A cell key's Config and Stream components hash documents that are
// values as json.Marshal writes them: Config the machine with its display
// name cleared, Stream a streamDoc. This file appends both documents by
// hand, byte for byte as Marshal writes them, so a key component hashes a
// buffer on the stack and allocates only its hash, and no cell key, arena
// key or store file name depends on how the bytes were made.
// FuzzContentHashMatchesJSON and TestHashDocsCoverEveryField hold the
// appenders to json.Marshal field by field.

// hashDocSize is the stack buffer a hash document is appended into: room
// for any built-in machine or profile, whose documents take under 1.5 KB.
const hashDocSize = 2048

// appendMachine appends m as json.Marshal writes a config.Machine.
func appendMachine(dst []byte, m *config.Machine) []byte {
	dst = jsonwire.AppendString(append(dst, `{"name":`...), m.Name)
	c := &m.Core
	dst = appendInt(dst, `,"core":{"fetch_width":`, c.FetchWidth)
	dst = appendInt(dst, `,"decode_width":`, c.DecodeWidth)
	dst = appendInt(dst, `,"issue_width":`, c.IssueWidth)
	dst = appendInt(dst, `,"commit_width":`, c.CommitWidth)
	dst = appendInt(dst, `,"rob_entries":`, c.ROBEntries)
	dst = appendInt(dst, `,"int_iq_entries":`, c.IntIQEntries)
	dst = appendInt(dst, `,"fp_iq_entries":`, c.FPIQEntries)
	dst = appendInt(dst, `,"load_queue_entries":`, c.LoadQueueEntries)
	dst = appendInt(dst, `,"store_queue_entries":`, c.StoreQueueEntries)
	dst = appendInt(dst, `,"int_phys_regs":`, c.IntPhysRegs)
	dst = appendInt(dst, `,"fp_phys_regs":`, c.FPPhysRegs)
	dst = appendInt(dst, `,"int_alus":`, c.IntALUs)
	dst = appendInt(dst, `,"int_muldivs":`, c.IntMulDivs)
	dst = appendInt(dst, `,"fp_adders":`, c.FPAdders)
	dst = appendInt(dst, `,"fp_muldivs":`, c.FPMulDivs)
	dst = appendInt(dst, `,"mem_issue_per_cycle":`, c.MemIssuePerCycle)
	dst = appendInt(dst, `,"mispredict_penalty":`, c.MispredictPenalty)
	dst = appendBool(dst, `,"wrong_path_fetch":`, c.WrongPathFetch)
	dst = appendBool(dst, `,"speculative_loads":`, c.SpeculativeLoads)
	dst = appendInt(dst, `,"violation_penalty":`, c.ViolationPenalty)
	l := &m.Lat
	dst = appendInt(dst, `},"latencies":{"int_alu":`, l.IntALU)
	dst = appendInt(dst, `,"int_mul":`, l.IntMul)
	dst = appendInt(dst, `,"int_div":`, l.IntDiv)
	dst = appendInt(dst, `,"fp_add":`, l.FPAdd)
	dst = appendInt(dst, `,"fp_mul":`, l.FPMul)
	dst = appendInt(dst, `,"fp_div":`, l.FPDiv)
	dst = appendInt(dst, `,"agen":`, l.AGen)
	p := &m.Pred
	dst = jsonwire.AppendString(append(dst, `},"predictor":{"kind":`...), p.Kind)
	dst = appendInt(dst, `,"table_entries":`, p.TableEntries)
	dst = appendInt(dst, `,"history_bits":`, p.HistoryBits)
	dst = appendInt(dst, `,"btb_entries":`, p.BTBEntries)
	dst = appendInt(dst, `,"btb_assoc":`, p.BTBAssoc)
	dst = appendInt(dst, `,"ras_entries":`, p.RASEntries)
	dst = appendCache(append(dst, `},"l1i":`...), &m.L1I)
	dst = appendCache(append(dst, `,"l1d":`...), &m.L1D)
	dst = appendTLB(append(dst, `,"itlb":`...), &m.ITLB)
	dst = appendTLB(append(dst, `,"dtlb":`...), &m.DTLB)
	dst = appendCache(append(dst, `,"memory":{"l2":`...), &m.Mem.L2)
	dst = appendInt(dst, `,"dram_latency":`, m.Mem.DRAMLatency)
	dst = appendInt(dst, `,"dram_interval":`, m.Mem.DRAMInterval)
	o := &m.Ports
	dst = appendInt(dst, `},"ports":{"count":`, o.Count)
	dst = appendInt(dst, `,"banks":`, o.Banks)
	dst = appendInt(dst, `,"width_bytes":`, o.WidthBytes)
	dst = appendInt(dst, `,"store_buffer_entries":`, o.StoreBufferEntries)
	dst = appendBool(dst, `,"store_combining":`, o.StoreCombining)
	dst = appendInt(dst, `,"line_buffers":`, o.LineBuffers)
	dst = appendInt(dst, `,"fill_bytes_per_cycle":`, o.FillBytesPerCycle)
	dst = appendBool(dst, `,"stores_check_line_buffers":`, o.StoresCheckLineBuffers)
	dst = appendBool(dst, `,"stores_first":`, o.StoresFirst)
	dst = appendBool(dst, `,"prefetch_next_line":`, o.PrefetchNextLine)
	dst = appendInt(dst, `,"prefetch_degree":`, o.PrefetchDegree)
	if o.FaultStuckDrain {
		dst = append(dst, `,"fault_stuck_drain":true`...)
	}
	return append(dst, "}}"...)
}

// appendCache appends g as json.Marshal writes a config.CacheGeom.
func appendCache(dst []byte, g *config.CacheGeom) []byte {
	dst = appendInt(dst, `{"size_bytes":`, g.SizeBytes)
	dst = appendInt(dst, `,"assoc":`, g.Assoc)
	dst = appendInt(dst, `,"line_bytes":`, g.LineBytes)
	dst = appendInt(dst, `,"hit_latency":`, g.HitLatency)
	dst = appendInt(dst, `,"mshrs":`, g.MSHRs)
	dst = appendBool(dst, `,"write_through":`, g.WriteThrough)
	return append(dst, '}')
}

// appendTLB appends t as json.Marshal writes a config.TLB.
func appendTLB(dst []byte, t *config.TLB) []byte {
	dst = appendInt(dst, `{"entries":`, t.Entries)
	dst = appendInt(dst, `,"page_bits":`, t.PageBits)
	dst = appendInt(dst, `,"miss_penalty":`, t.MissPenalty)
	return append(dst, '}')
}

// streamDoc is the document a stream's hash covers: its profile with the
// display labels cleared, and the process count and quantum of a
// multiprogram, left out when zero.
type streamDoc struct {
	Profile   workload.Profile
	Processes int `json:",omitempty"`
	Quantum   int `json:",omitempty"`
}

// appendStream appends d as json.Marshal writes a streamDoc. A NaN or
// infinite float has no JSON form: it is an error, as it is to Marshal.
func appendStream(dst []byte, d *streamDoc) ([]byte, error) {
	var err error
	p := &d.Profile
	dst = jsonwire.AppendString(append(dst, `{"Profile":{"Name":`...), p.Name)
	dst = jsonwire.AppendString(append(dst, `,"Description":`...), p.Description)
	dst = appendMix(append(dst, `,"Mix":`...), &p.Mix, &err)
	dst = appendRegions(append(dst, `,"Regions":`...), p.Regions, &err)
	dst = appendInt(dst, `,"CodeBlocks":`, p.CodeBlocks)
	dst = appendInt(dst, `,"MeanBlockLen":`, p.MeanBlockLen)
	dst = appendFloat(dst, `,"Size8Frac":`, p.Size8Frac, &err)
	dst = appendFloat(dst, `,"Size1Frac":`, p.Size1Frac, &err)
	k := &p.Kernel
	dst = appendInt(dst, `,"Kernel":{"EveryMean":`, k.EveryMean)
	dst = appendInt(dst, `,"LengthMean":`, k.LengthMean)
	dst = appendMix(append(dst, `,"Mix":`...), &k.Mix, &err)
	dst = appendRegions(append(dst, `,"Regions":`...), k.Regions, &err)
	dst = appendInt(dst, `,"CodeBlocks":`, k.CodeBlocks)
	dst = appendInt(dst, `,"MeanBlockLen":`, k.MeanBlockLen)
	dst = append(dst, "}}"...)
	if d.Processes != 0 {
		dst = appendInt(dst, `,"Processes":`, d.Processes)
	}
	if d.Quantum != 0 {
		dst = appendInt(dst, `,"Quantum":`, d.Quantum)
	}
	return append(dst, '}'), err
}

// appendMix appends m as json.Marshal writes a workload.Mix, keeping the
// first float without a JSON form in *err.
func appendMix(dst []byte, m *workload.Mix, err *error) []byte {
	dst = appendFloat(dst, `{"Load":`, m.Load, err)
	dst = appendFloat(dst, `,"Store":`, m.Store, err)
	dst = appendFloat(dst, `,"FPAdd":`, m.FPAdd, err)
	dst = appendFloat(dst, `,"FPMul":`, m.FPMul, err)
	dst = appendFloat(dst, `,"FPDiv":`, m.FPDiv, err)
	dst = appendFloat(dst, `,"IntMul":`, m.IntMul, err)
	dst = appendFloat(dst, `,"IntDiv":`, m.IntDiv, err)
	dst = appendFloat(dst, `,"Nop":`, m.Nop, err)
	return append(dst, '}')
}

// appendRegions appends rs as json.Marshal writes a []workload.Region,
// null when nil, keeping the first float without a JSON form in *err.
func appendRegions(dst []byte, rs []workload.Region, err *error) []byte {
	if rs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range rs {
		r := &rs[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonwire.AppendString(append(dst, `{"Name":`...), r.Name)
		dst = appendFloat(dst, `,"Weight":`, r.Weight, err)
		dst = strconv.AppendUint(append(dst, `,"Base":`...), r.Base, 10)
		dst = strconv.AppendUint(append(dst, `,"Size":`...), r.Size, 10)
		dst = strconv.AppendUint(append(dst, `,"Pattern":`...), uint64(r.Pattern), 10)
		dst = strconv.AppendUint(append(dst, `,"StrideBytes":`...), r.StrideBytes, 10)
		dst = appendInt(dst, `,"Run":`, r.Run)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendFloat appends the member key and f, keeping the first float
// without a JSON form in *err.
func appendFloat(dst []byte, key string, f float64, err *error) []byte {
	dst, e := jsonwire.AppendFloat(append(dst, key...), f)
	if *err == nil {
		*err = e
	}
	return dst
}

// appendInt appends the member key and v.
func appendInt(dst []byte, key string, v int) []byte {
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

// appendBool appends the member key and b.
func appendBool(dst []byte, key string, b bool) []byte {
	return strconv.AppendBool(append(dst, key...), b)
}
