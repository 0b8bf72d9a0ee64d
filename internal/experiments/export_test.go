package experiments

// The table() of each typed row set, for the shape tests in experiments_test.
var (
	Fig1Table   = fig1Table
	Fig2Table   = fig2Table
	Table1Table = table1Table
	Table2Table = table2Table
	Fig8Table   = fig8Table
	Fig9Table   = fig9Table
	Fig10Table  = fig10Table
	Fig11Table  = fig11Table
	Table3Table = table3Table
	Fig12Table  = fig12Table
	Fig13Table  = fig13Table
)
