package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteSiteSeriesCSV writes per-site series as CSV with header
// "bin,site0,site1,...". All series must share bin count and width.
func WriteSiteSeriesCSV(w io.Writer, series []SiteSeries) error {
	if len(series) == 0 {
		return fmt.Errorf("trace: no series to write")
	}
	bins := len(series[0].Counts)
	for _, s := range series {
		if len(s.Counts) != bins {
			return fmt.Errorf("trace: series length mismatch: %d vs %d", len(s.Counts), bins)
		}
	}
	cw := csv.NewWriter(w)
	header := []string{"bin"}
	for i := range series {
		header = append(header, fmt.Sprintf("site%d", i))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(series)+1)
	for b := 0; b < bins; b++ {
		row[0] = strconv.Itoa(b)
		for i, s := range series {
			row[i+1] = strconv.FormatFloat(s.Counts[b], 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
