// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func step_aes_slice_all(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[110]
	m0 := mems[0]
	v0 := vals[0]
	v13 := vals[13]
	v33 := vals[33]
	v35 := vals[35]
	v39 := vals[39]
	v43 := vals[43]
	v44 := vals[44]
	v49 := vals[49]
	v52 := vals[52]
	v55 := vals[55]
	v58 := vals[58]
	v61 := vals[61]
	v62 := vals[62]
	v66 := vals[66]
	v69 := vals[69]
	v70 := vals[70]
	v73 := vals[73]
	v76 := vals[76]
	v81 := vals[81]
	v86 := vals[86]
	v91 := vals[91]
	v96 := vals[96]
	v100 := vals[100]
	v105 := vals[105]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			var v25 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v25 = m0[addr] & 0xffff
			}
			v27 := (v25 - 0x1) & 0xffff
			v53 := (v52 + v13) & 0xffffff
			v56 := (v55 + v27) & 0xffffff
			v59 := (v58 + 0x1) & 0xffffff
			v71 := (v70 + 0x3) & 0xffffff
			v74 := (v73 + 0x1) & 0xffffff
			v108 := (v105 + 0x1) & 0xffffff
			v32 := v27
			v38 := v35
			v42 := v39
			v48 := v44
			v51 := v49
			v54 := v53
			v57 := v56
			v60 := v59
			v65 := v62
			v68 := v66
			v72 := v71
			v75 := v74
			v80 := v76
			v85 := v81
			v90 := v86
			v95 := v91
			v99 := v96
			v104 := v100
			v109 := v108
			n1 := v32
			n3 := v38
			n4 := v42
			n6 := v48
			n7 := v51
			n8 := v54
			n9 := v57
			n10 := v60
			n12 := v65
			n13 := v68
			n15 := v72
			n16 := v75
			n17 := v80
			n18 := v85
			n19 := v90
			n20 := v95
			n21 := v99
			n22 := v104
			n23 := v109
			v0 = 0x1
			v13 = n1
			v33 = 0x0
			v35 = n3
			v39 = n4
			v43 = 0x0
			v44 = n6
			v49 = n7
			v52 = n8
			v55 = n9
			v58 = n10
			v61 = 0x0
			v62 = n12
			v66 = n13
			v69 = 0x0
			v70 = n15
			v73 = n16
			v76 = n17
			v81 = n18
			v86 = n19
			v91 = n20
			v96 = n21
			v100 = n22
			v105 = n23
		case 0x1:
			v64 := (v62 + 0x27) & 0xffffff
			v67 := (v66 + 0x1) & 0xffffff
			v103 := (v100 + 0x1) & 0xffffff
			v31 := v13
			v32 := v31
			v38 := v35
			v42 := v39
			v48 := v44
			v51 := v49
			v54 := v52
			v57 := v55
			v60 := v58
			v65 := v64
			v68 := v67
			v72 := v70
			v75 := v73
			v80 := v76
			v85 := v81
			v90 := v86
			v95 := v91
			v99 := v96
			v104 := v103
			v109 := v105
			n1 := v32
			n3 := v38
			n4 := v42
			n6 := v48
			n7 := v51
			n8 := v54
			n9 := v57
			n10 := v60
			n12 := v65
			n13 := v68
			n15 := v72
			n16 := v75
			n17 := v80
			n18 := v85
			n19 := v90
			n20 := v95
			n21 := v99
			n22 := v104
			n23 := v109
			v0 = 0x2
			v13 = n1
			v33 = 0x0
			v35 = n3
			v39 = n4
			v43 = 0x0
			v44 = n6
			v49 = n7
			v52 = n8
			v55 = n9
			v58 = n10
			v61 = 0x0
			v62 = n12
			v66 = n13
			v69 = 0x0
			v70 = n15
			v73 = n16
			v76 = n17
			v81 = n18
			v86 = n19
			v91 = n20
			v96 = n21
			v100 = n22
			v105 = n23
		case 0x2:
			v47 := (v44 + 0x17) & 0xffffff
			v50 := (v49 + 0x1) & 0xffffff
			v98 := (v96 + 0x1) & 0xffffff
			v31 := v13
			v32 := v31
			v38 := v35
			v42 := v39
			v48 := v47
			v51 := v50
			v54 := v52
			v57 := v55
			v60 := v58
			v65 := v62
			v68 := v66
			v72 := v70
			v75 := v73
			v80 := v76
			v85 := v81
			v90 := v86
			v95 := v91
			v99 := v98
			v104 := v100
			v109 := v105
			n1 := v32
			n3 := v38
			n4 := v42
			n6 := v48
			n7 := v51
			n8 := v54
			n9 := v57
			n10 := v60
			n12 := v65
			n13 := v68
			n15 := v72
			n16 := v75
			n17 := v80
			n18 := v85
			n19 := v90
			n20 := v95
			n21 := v99
			n22 := v104
			n23 := v109
			v0 = 0x3
			v13 = n1
			v33 = 0x0
			v35 = n3
			v39 = n4
			v43 = 0x0
			v44 = n6
			v49 = n7
			v52 = n8
			v55 = n9
			v58 = n10
			v61 = 0x0
			v62 = n12
			v66 = n13
			v69 = 0x0
			v70 = n15
			v73 = n16
			v76 = n17
			v81 = n18
			v86 = n19
			v91 = n20
			v96 = n21
			v100 = n22
			v105 = n23
		case 0x3:
			v37 := (v35 + 0x9) & 0xffffff
			v41 := (v39 + 0x1) & 0xffffff
			v94 := (v91 + 0x1) & 0xffffff
			v31 := v13
			v32 := v31
			v38 := v37
			v42 := v41
			v48 := v44
			v51 := v49
			v54 := v52
			v57 := v55
			v60 := v58
			v65 := v62
			v68 := v66
			v72 := v70
			v75 := v73
			v80 := v76
			v85 := v81
			v90 := v86
			v95 := v94
			v99 := v96
			v104 := v100
			v109 := v105
			n1 := v32
			n3 := v38
			n4 := v42
			n6 := v48
			n7 := v51
			n8 := v54
			n9 := v57
			n10 := v60
			n12 := v65
			n13 := v68
			n15 := v72
			n16 := v75
			n17 := v80
			n18 := v85
			n19 := v90
			n20 := v95
			n21 := v99
			n22 := v104
			n23 := v109
			v0 = 0x4
			v13 = n1
			v33 = 0x0
			v35 = n3
			v39 = n4
			v43 = 0x0
			v44 = n6
			v49 = n7
			v52 = n8
			v55 = n9
			v58 = n10
			v61 = 0x0
			v62 = n12
			v66 = n13
			v69 = 0x0
			v70 = n15
			v73 = n16
			v76 = n17
			v81 = n18
			v86 = n19
			v91 = n20
			v96 = n21
			v100 = n22
			v105 = n23
		case 0x4:
			v89 := (v86 + 0x1) & 0xffffff
			v31 := v13
			v32 := v31
			v38 := v35
			v42 := v39
			v48 := v44
			v51 := v49
			v54 := v52
			v57 := v55
			v60 := v58
			v65 := v62
			v68 := v66
			v72 := v70
			v75 := v73
			v80 := v76
			v85 := v81
			v90 := v89
			v95 := v91
			v99 := v96
			v104 := v100
			v109 := v105
			n1 := v32
			n3 := v38
			n4 := v42
			n6 := v48
			n7 := v51
			n8 := v54
			n9 := v57
			n10 := v60
			n12 := v65
			n13 := v68
			n15 := v72
			n16 := v75
			n17 := v80
			n18 := v85
			n19 := v90
			n20 := v95
			n21 := v99
			n22 := v104
			n23 := v109
			v0 = 0x5
			v13 = n1
			v33 = 0x0
			v35 = n3
			v39 = n4
			v43 = 0x0
			v44 = n6
			v49 = n7
			v52 = n8
			v55 = n9
			v58 = n10
			v61 = 0x0
			v62 = n12
			v66 = n13
			v69 = 0x0
			v70 = n15
			v73 = n16
			v76 = n17
			v81 = n18
			v86 = n19
			v91 = n20
			v96 = n21
			v100 = n22
			v105 = n23
		case 0x5:
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			var v17 uint64
			if v15 != 0 {
				v17 = 0x6
			} else {
				v17 = 0x3
			}
			var v28 uint64
			if v13 != 0x0 {
				v28 = 1
			}
			v30 := (v13 - 0x1) & 0xffff
			v47 := (v44 + 0x17) & 0xffffff
			v50 := (v49 + 0x1) & 0xffffff
			v79 := (v76 + 0x1) & 0xffffff
			v84 := (v81 + 0x1) & 0xffffff
			v18 := v17
			v19 := v18
			v20 := v19
			v21 := v20
			v22 := v21
			v23 := v22
			v29 := v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			v32 := v31
			v38 := v35
			v42 := v39
			v45 := v29
			var v48 uint64
			if v45 != 0 {
				v48 = v47
			} else {
				v48 = v44
			}
			var v51 uint64
			if v45 != 0 {
				v51 = v50
			} else {
				v51 = v49
			}
			v54 := v52
			v57 := v55
			v60 := v58
			v65 := v62
			v68 := v66
			v72 := v70
			v75 := v73
			var v77 uint64
			if v23 == 0x3 {
				v77 = 1
			}
			v78 := v77
			var v80 uint64
			if v78 != 0 {
				v80 = v79
			} else {
				v80 = v76
			}
			var v82 uint64
			if v23 == 0x6 {
				v82 = 1
			}
			v83 := v82
			var v85 uint64
			if v83 != 0 {
				v85 = v84
			} else {
				v85 = v81
			}
			v90 := v86
			v95 := v91
			v99 := v96
			v104 := v100
			v109 := v105
			n0 := v23
			n1 := v32
			n3 := v38
			n4 := v42
			n6 := v48
			n7 := v51
			n8 := v54
			n9 := v57
			n10 := v60
			n12 := v65
			n13 := v68
			n15 := v72
			n16 := v75
			n17 := v80
			n18 := v85
			n19 := v90
			n20 := v95
			n21 := v99
			n22 := v104
			n23 := v109
			v0 = n0
			v13 = n1
			v33 = 0x0
			v35 = n3
			v39 = n4
			v43 = 0x0
			v44 = n6
			v49 = n7
			v52 = n8
			v55 = n9
			v58 = n10
			v61 = 0x0
			v62 = n12
			v66 = n13
			v69 = 0x0
			v70 = n15
			v73 = n16
			v76 = n17
			v81 = n18
			v86 = n19
			v91 = n20
			v96 = n21
			v100 = n22
			v105 = n23
		case 0x6:
			break loop
		default:
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			var v17 uint64
			if v15 != 0 {
				v17 = 0x6
			} else {
				v17 = 0x3
			}
			var v25 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v25 = m0[addr] & 0xffff
			}
			v27 := (v25 - 0x1) & 0xffff
			var v28 uint64
			if v13 != 0x0 {
				v28 = 1
			}
			v30 := (v13 - 0x1) & 0xffff
			v37 := (v35 + 0x9) & 0xffffff
			v41 := (v39 + 0x1) & 0xffffff
			v47 := (v44 + 0x17) & 0xffffff
			v50 := (v49 + 0x1) & 0xffffff
			v53 := (v52 + v13) & 0xffffff
			v56 := (v55 + v27) & 0xffffff
			v59 := (v58 + 0x1) & 0xffffff
			v64 := (v62 + 0x27) & 0xffffff
			v67 := (v66 + 0x1) & 0xffffff
			v71 := (v70 + 0x3) & 0xffffff
			v74 := (v73 + 0x1) & 0xffffff
			v79 := (v76 + 0x1) & 0xffffff
			v84 := (v81 + 0x1) & 0xffffff
			v89 := (v86 + 0x1) & 0xffffff
			v94 := (v91 + 0x1) & 0xffffff
			v98 := (v96 + 0x1) & 0xffffff
			v103 := (v100 + 0x1) & 0xffffff
			v108 := (v105 + 0x1) & 0xffffff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v6 uint64
			if v0 == 0x2 {
				v6 = 1
			}
			var v8 uint64
			if v0 == 0x3 {
				v8 = 1
			}
			var v10 uint64
			if v0 == 0x4 {
				v10 = 1
			}
			var v12 uint64
			if v0 == 0x5 {
				v12 = 1
			}
			var v18 uint64
			if v12 != 0 {
				v18 = v17
			} else {
				v18 = v0
			}
			var v19 uint64
			if v10 != 0 {
				v19 = 0x5
			} else {
				v19 = v18
			}
			var v20 uint64
			if v8 != 0 {
				v20 = 0x4
			} else {
				v20 = v19
			}
			var v21 uint64
			if v6 != 0 {
				v21 = 0x3
			} else {
				v21 = v20
			}
			var v22 uint64
			if v4 != 0 {
				v22 = 0x2
			} else {
				v22 = v21
			}
			var v23 uint64
			if v2 != 0 {
				v23 = 0x1
			} else {
				v23 = v22
			}
			v29 := v12 & v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			var v32 uint64
			if v2 != 0 {
				v32 = v27
			} else {
				v32 = v31
			}
			var v38 uint64
			if v8 != 0 {
				v38 = v37
			} else {
				v38 = v35
			}
			var v42 uint64
			if v8 != 0 {
				v42 = v41
			} else {
				v42 = v39
			}
			v45 := (v6 | v29)
			var v48 uint64
			if v45 != 0 {
				v48 = v47
			} else {
				v48 = v44
			}
			var v51 uint64
			if v45 != 0 {
				v51 = v50
			} else {
				v51 = v49
			}
			var v54 uint64
			if v2 != 0 {
				v54 = v53
			} else {
				v54 = v52
			}
			var v57 uint64
			if v2 != 0 {
				v57 = v56
			} else {
				v57 = v55
			}
			var v60 uint64
			if v2 != 0 {
				v60 = v59
			} else {
				v60 = v58
			}
			var v65 uint64
			if v4 != 0 {
				v65 = v64
			} else {
				v65 = v62
			}
			var v68 uint64
			if v4 != 0 {
				v68 = v67
			} else {
				v68 = v66
			}
			var v72 uint64
			if v2 != 0 {
				v72 = v71
			} else {
				v72 = v70
			}
			var v75 uint64
			if v2 != 0 {
				v75 = v74
			} else {
				v75 = v73
			}
			var v77 uint64
			if v23 == 0x3 {
				v77 = 1
			}
			v78 := v12 & v77
			var v80 uint64
			if v78 != 0 {
				v80 = v79
			} else {
				v80 = v76
			}
			var v82 uint64
			if v23 == 0x6 {
				v82 = 1
			}
			v83 := v12 & v82
			var v85 uint64
			if v83 != 0 {
				v85 = v84
			} else {
				v85 = v81
			}
			var v87 uint64
			if v23 == 0x5 {
				v87 = 1
			}
			v88 := v10 & v87
			var v90 uint64
			if v88 != 0 {
				v90 = v89
			} else {
				v90 = v86
			}
			var v92 uint64
			if v23 == 0x4 {
				v92 = 1
			}
			v93 := v8 & v92
			var v95 uint64
			if v93 != 0 {
				v95 = v94
			} else {
				v95 = v91
			}
			v97 := v6 & v77
			var v99 uint64
			if v97 != 0 {
				v99 = v98
			} else {
				v99 = v96
			}
			var v101 uint64
			if v23 == 0x2 {
				v101 = 1
			}
			v102 := v4 & v101
			var v104 uint64
			if v102 != 0 {
				v104 = v103
			} else {
				v104 = v100
			}
			var v106 uint64
			if v23 == 0x1 {
				v106 = 1
			}
			v107 := v2 & v106
			var v109 uint64
			if v107 != 0 {
				v109 = v108
			} else {
				v109 = v105
			}
			var v110 uint64
			if v0 == 0x6 {
				v110 = 1
			}
			if v110 != 0 {
				break loop
			}
			n0 := v23
			n1 := v32
			n3 := v38
			n4 := v42
			n6 := v48
			n7 := v51
			n8 := v54
			n9 := v57
			n10 := v60
			n12 := v65
			n13 := v68
			n15 := v72
			n16 := v75
			n17 := v80
			n18 := v85
			n19 := v90
			n20 := v95
			n21 := v99
			n22 := v104
			n23 := v109
			v0 = n0
			v13 = n1
			v33 = 0x0
			v35 = n3
			v39 = n4
			v43 = 0x0
			v44 = n6
			v49 = n7
			v52 = n8
			v55 = n9
			v58 = n10
			v61 = 0x0
			v62 = n12
			v66 = n13
			v69 = 0x0
			v70 = n15
			v73 = n16
			v76 = n17
			v81 = n18
			v86 = n19
			v91 = n20
			v96 = n21
			v100 = n22
			v105 = n23
		}
	}
	vals[0] = v0
	vals[13] = v13
	vals[33] = v33
	vals[35] = v35
	vals[39] = v39
	vals[43] = v43
	vals[44] = v44
	vals[49] = v49
	vals[52] = v52
	vals[55] = v55
	vals[58] = v58
	vals[61] = v61
	vals[62] = v62
	vals[66] = v66
	vals[69] = v69
	vals[70] = v70
	vals[73] = v73
	vals[76] = v76
	vals[81] = v81
	vals[86] = v86
	vals[91] = v91
	vals[96] = v96
	vals[100] = v100
	vals[105] = v105
	var v15 uint64
	if v13 == 0x0 {
		v15 = 1
	}
	vals[15] = v15
	var v17 uint64
	if v15 != 0 {
		v17 = 0x6
	} else {
		v17 = 0x3
	}
	vals[17] = v17
	var v25 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v25 = m0[addr] & 0xffff
	}
	vals[25] = v25
	v27 := (v25 - 0x1) & 0xffff
	vals[27] = v27
	var v28 uint64
	if v13 != 0x0 {
		v28 = 1
	}
	vals[28] = v28
	v30 := (v13 - 0x1) & 0xffff
	vals[30] = v30
	v37 := (v35 + 0x9) & 0xffffff
	vals[37] = v37
	v41 := (v39 + 0x1) & 0xffffff
	vals[41] = v41
	v47 := (v44 + 0x17) & 0xffffff
	vals[47] = v47
	v50 := (v49 + 0x1) & 0xffffff
	vals[50] = v50
	v53 := (v52 + v13) & 0xffffff
	vals[53] = v53
	v56 := (v55 + v27) & 0xffffff
	vals[56] = v56
	v59 := (v58 + 0x1) & 0xffffff
	vals[59] = v59
	v64 := (v62 + 0x27) & 0xffffff
	vals[64] = v64
	v67 := (v66 + 0x1) & 0xffffff
	vals[67] = v67
	v71 := (v70 + 0x3) & 0xffffff
	vals[71] = v71
	v74 := (v73 + 0x1) & 0xffffff
	vals[74] = v74
	v79 := (v76 + 0x1) & 0xffffff
	vals[79] = v79
	v84 := (v81 + 0x1) & 0xffffff
	vals[84] = v84
	v89 := (v86 + 0x1) & 0xffffff
	vals[89] = v89
	v94 := (v91 + 0x1) & 0xffffff
	vals[94] = v94
	v98 := (v96 + 0x1) & 0xffffff
	vals[98] = v98
	v103 := (v100 + 0x1) & 0xffffff
	vals[103] = v103
	v108 := (v105 + 0x1) & 0xffffff
	vals[108] = v108
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x0
		vals[19] = 0x0
		vals[20] = 0x0
		vals[21] = 0x0
		vals[22] = 0x0
		vals[23] = 0x1
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v27
		vals[32] = v32
		v38 := v35
		vals[38] = v38
		v42 := v39
		vals[42] = v42
		vals[45] = 0x0
		v48 := v44
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		v54 := v53
		vals[54] = v54
		v57 := v56
		vals[57] = v57
		v60 := v59
		vals[60] = v60
		v65 := v62
		vals[65] = v65
		v68 := v66
		vals[68] = v68
		v72 := v71
		vals[72] = v72
		v75 := v74
		vals[75] = v75
		vals[77] = 0x0
		vals[78] = 0x0
		v80 := v76
		vals[80] = v80
		vals[82] = 0x0
		vals[83] = 0x0
		v85 := v81
		vals[85] = v85
		vals[87] = 0x0
		vals[88] = 0x0
		v90 := v86
		vals[90] = v90
		vals[92] = 0x0
		vals[93] = 0x0
		v95 := v91
		vals[95] = v95
		vals[97] = 0x0
		v99 := v96
		vals[99] = v99
		vals[101] = 0x0
		vals[102] = 0x0
		v104 := v100
		vals[104] = v104
		vals[106] = 0x1
		vals[107] = 0x1
		v109 := v108
		vals[109] = v109
		vals[110] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x1
		vals[19] = 0x1
		vals[20] = 0x1
		vals[21] = 0x1
		vals[22] = 0x2
		vals[23] = 0x2
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v38 := v35
		vals[38] = v38
		v42 := v39
		vals[42] = v42
		vals[45] = 0x0
		v48 := v44
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		v54 := v52
		vals[54] = v54
		v57 := v55
		vals[57] = v57
		v60 := v58
		vals[60] = v60
		v65 := v64
		vals[65] = v65
		v68 := v67
		vals[68] = v68
		v72 := v70
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[77] = 0x0
		vals[78] = 0x0
		v80 := v76
		vals[80] = v80
		vals[82] = 0x0
		vals[83] = 0x0
		v85 := v81
		vals[85] = v85
		vals[87] = 0x0
		vals[88] = 0x0
		v90 := v86
		vals[90] = v90
		vals[92] = 0x0
		vals[93] = 0x0
		v95 := v91
		vals[95] = v95
		vals[97] = 0x0
		v99 := v96
		vals[99] = v99
		vals[101] = 0x1
		vals[102] = 0x1
		v104 := v103
		vals[104] = v104
		vals[106] = 0x0
		vals[107] = 0x0
		v109 := v105
		vals[109] = v109
		vals[110] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x2
		vals[19] = 0x2
		vals[20] = 0x2
		vals[21] = 0x3
		vals[22] = 0x3
		vals[23] = 0x3
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v38 := v35
		vals[38] = v38
		v42 := v39
		vals[42] = v42
		vals[45] = 0x1
		v48 := v47
		vals[48] = v48
		v51 := v50
		vals[51] = v51
		v54 := v52
		vals[54] = v54
		v57 := v55
		vals[57] = v57
		v60 := v58
		vals[60] = v60
		v65 := v62
		vals[65] = v65
		v68 := v66
		vals[68] = v68
		v72 := v70
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[77] = 0x1
		vals[78] = 0x0
		v80 := v76
		vals[80] = v80
		vals[82] = 0x0
		vals[83] = 0x0
		v85 := v81
		vals[85] = v85
		vals[87] = 0x0
		vals[88] = 0x0
		v90 := v86
		vals[90] = v90
		vals[92] = 0x0
		vals[93] = 0x0
		v95 := v91
		vals[95] = v95
		vals[97] = 0x1
		v99 := v98
		vals[99] = v99
		vals[101] = 0x0
		vals[102] = 0x0
		v104 := v100
		vals[104] = v104
		vals[106] = 0x0
		vals[107] = 0x0
		v109 := v105
		vals[109] = v109
		vals[110] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x3
		vals[19] = 0x3
		vals[20] = 0x4
		vals[21] = 0x4
		vals[22] = 0x4
		vals[23] = 0x4
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v38 := v37
		vals[38] = v38
		v42 := v41
		vals[42] = v42
		vals[45] = 0x0
		v48 := v44
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		v54 := v52
		vals[54] = v54
		v57 := v55
		vals[57] = v57
		v60 := v58
		vals[60] = v60
		v65 := v62
		vals[65] = v65
		v68 := v66
		vals[68] = v68
		v72 := v70
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[77] = 0x0
		vals[78] = 0x0
		v80 := v76
		vals[80] = v80
		vals[82] = 0x0
		vals[83] = 0x0
		v85 := v81
		vals[85] = v85
		vals[87] = 0x0
		vals[88] = 0x0
		v90 := v86
		vals[90] = v90
		vals[92] = 0x1
		vals[93] = 0x1
		v95 := v94
		vals[95] = v95
		vals[97] = 0x0
		v99 := v96
		vals[99] = v99
		vals[101] = 0x0
		vals[102] = 0x0
		v104 := v100
		vals[104] = v104
		vals[106] = 0x0
		vals[107] = 0x0
		v109 := v105
		vals[109] = v109
		vals[110] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x1
		vals[12] = 0x0
		vals[18] = 0x4
		vals[19] = 0x5
		vals[20] = 0x5
		vals[21] = 0x5
		vals[22] = 0x5
		vals[23] = 0x5
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v38 := v35
		vals[38] = v38
		v42 := v39
		vals[42] = v42
		vals[45] = 0x0
		v48 := v44
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		v54 := v52
		vals[54] = v54
		v57 := v55
		vals[57] = v57
		v60 := v58
		vals[60] = v60
		v65 := v62
		vals[65] = v65
		v68 := v66
		vals[68] = v68
		v72 := v70
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[77] = 0x0
		vals[78] = 0x0
		v80 := v76
		vals[80] = v80
		vals[82] = 0x0
		vals[83] = 0x0
		v85 := v81
		vals[85] = v85
		vals[87] = 0x1
		vals[88] = 0x1
		v90 := v89
		vals[90] = v90
		vals[92] = 0x0
		vals[93] = 0x0
		v95 := v91
		vals[95] = v95
		vals[97] = 0x0
		v99 := v96
		vals[99] = v99
		vals[101] = 0x0
		vals[102] = 0x0
		v104 := v100
		vals[104] = v104
		vals[106] = 0x0
		vals[107] = 0x0
		v109 := v105
		vals[109] = v109
		vals[110] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x1
		v18 := v17
		vals[18] = v18
		v19 := v18
		vals[19] = v19
		v20 := v19
		vals[20] = v20
		v21 := v20
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		v23 := v22
		vals[23] = v23
		v29 := v28
		vals[29] = v29
		var v31 uint64
		if v29 != 0 {
			v31 = v30
		} else {
			v31 = v13
		}
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v38 := v35
		vals[38] = v38
		v42 := v39
		vals[42] = v42
		v45 := v29
		vals[45] = v45
		var v48 uint64
		if v45 != 0 {
			v48 = v47
		} else {
			v48 = v44
		}
		vals[48] = v48
		var v51 uint64
		if v45 != 0 {
			v51 = v50
		} else {
			v51 = v49
		}
		vals[51] = v51
		v54 := v52
		vals[54] = v54
		v57 := v55
		vals[57] = v57
		v60 := v58
		vals[60] = v60
		v65 := v62
		vals[65] = v65
		v68 := v66
		vals[68] = v68
		v72 := v70
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		var v77 uint64
		if v23 == 0x3 {
			v77 = 1
		}
		vals[77] = v77
		v78 := v77
		vals[78] = v78
		var v80 uint64
		if v78 != 0 {
			v80 = v79
		} else {
			v80 = v76
		}
		vals[80] = v80
		var v82 uint64
		if v23 == 0x6 {
			v82 = 1
		}
		vals[82] = v82
		v83 := v82
		vals[83] = v83
		var v85 uint64
		if v83 != 0 {
			v85 = v84
		} else {
			v85 = v81
		}
		vals[85] = v85
		var v87 uint64
		if v23 == 0x5 {
			v87 = 1
		}
		vals[87] = v87
		vals[88] = 0x0
		v90 := v86
		vals[90] = v90
		var v92 uint64
		if v23 == 0x4 {
			v92 = 1
		}
		vals[92] = v92
		vals[93] = 0x0
		v95 := v91
		vals[95] = v95
		vals[97] = 0x0
		v99 := v96
		vals[99] = v99
		var v101 uint64
		if v23 == 0x2 {
			v101 = 1
		}
		vals[101] = v101
		vals[102] = 0x0
		v104 := v100
		vals[104] = v104
		var v106 uint64
		if v23 == 0x1 {
			v106 = 1
		}
		vals[106] = v106
		vals[107] = 0x0
		v109 := v105
		vals[109] = v109
		vals[110] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x6
		vals[19] = 0x6
		vals[20] = 0x6
		vals[21] = 0x6
		vals[22] = 0x6
		vals[23] = 0x6
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v38 := v35
		vals[38] = v38
		v42 := v39
		vals[42] = v42
		vals[45] = 0x0
		v48 := v44
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		v54 := v52
		vals[54] = v54
		v57 := v55
		vals[57] = v57
		v60 := v58
		vals[60] = v60
		v65 := v62
		vals[65] = v65
		v68 := v66
		vals[68] = v68
		v72 := v70
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[77] = 0x0
		vals[78] = 0x0
		v80 := v76
		vals[80] = v80
		vals[82] = 0x1
		vals[83] = 0x0
		v85 := v81
		vals[85] = v85
		vals[87] = 0x0
		vals[88] = 0x0
		v90 := v86
		vals[90] = v90
		vals[92] = 0x0
		vals[93] = 0x0
		v95 := v91
		vals[95] = v95
		vals[97] = 0x0
		v99 := v96
		vals[99] = v99
		vals[101] = 0x0
		vals[102] = 0x0
		v104 := v100
		vals[104] = v104
		vals[106] = 0x0
		vals[107] = 0x0
		v109 := v105
		vals[109] = v109
		vals[110] = 0x1
	default:
		var v2 uint64
		if v0 == 0x0 {
			v2 = 1
		}
		vals[2] = v2
		var v4 uint64
		if v0 == 0x1 {
			v4 = 1
		}
		vals[4] = v4
		var v6 uint64
		if v0 == 0x2 {
			v6 = 1
		}
		vals[6] = v6
		var v8 uint64
		if v0 == 0x3 {
			v8 = 1
		}
		vals[8] = v8
		var v10 uint64
		if v0 == 0x4 {
			v10 = 1
		}
		vals[10] = v10
		var v12 uint64
		if v0 == 0x5 {
			v12 = 1
		}
		vals[12] = v12
		var v18 uint64
		if v12 != 0 {
			v18 = v17
		} else {
			v18 = v0
		}
		vals[18] = v18
		var v19 uint64
		if v10 != 0 {
			v19 = 0x5
		} else {
			v19 = v18
		}
		vals[19] = v19
		var v20 uint64
		if v8 != 0 {
			v20 = 0x4
		} else {
			v20 = v19
		}
		vals[20] = v20
		var v21 uint64
		if v6 != 0 {
			v21 = 0x3
		} else {
			v21 = v20
		}
		vals[21] = v21
		var v22 uint64
		if v4 != 0 {
			v22 = 0x2
		} else {
			v22 = v21
		}
		vals[22] = v22
		var v23 uint64
		if v2 != 0 {
			v23 = 0x1
		} else {
			v23 = v22
		}
		vals[23] = v23
		v29 := v12 & v28
		vals[29] = v29
		var v31 uint64
		if v29 != 0 {
			v31 = v30
		} else {
			v31 = v13
		}
		vals[31] = v31
		var v32 uint64
		if v2 != 0 {
			v32 = v27
		} else {
			v32 = v31
		}
		vals[32] = v32
		var v38 uint64
		if v8 != 0 {
			v38 = v37
		} else {
			v38 = v35
		}
		vals[38] = v38
		var v42 uint64
		if v8 != 0 {
			v42 = v41
		} else {
			v42 = v39
		}
		vals[42] = v42
		v45 := (v6 | v29)
		vals[45] = v45
		var v48 uint64
		if v45 != 0 {
			v48 = v47
		} else {
			v48 = v44
		}
		vals[48] = v48
		var v51 uint64
		if v45 != 0 {
			v51 = v50
		} else {
			v51 = v49
		}
		vals[51] = v51
		var v54 uint64
		if v2 != 0 {
			v54 = v53
		} else {
			v54 = v52
		}
		vals[54] = v54
		var v57 uint64
		if v2 != 0 {
			v57 = v56
		} else {
			v57 = v55
		}
		vals[57] = v57
		var v60 uint64
		if v2 != 0 {
			v60 = v59
		} else {
			v60 = v58
		}
		vals[60] = v60
		var v65 uint64
		if v4 != 0 {
			v65 = v64
		} else {
			v65 = v62
		}
		vals[65] = v65
		var v68 uint64
		if v4 != 0 {
			v68 = v67
		} else {
			v68 = v66
		}
		vals[68] = v68
		var v72 uint64
		if v2 != 0 {
			v72 = v71
		} else {
			v72 = v70
		}
		vals[72] = v72
		var v75 uint64
		if v2 != 0 {
			v75 = v74
		} else {
			v75 = v73
		}
		vals[75] = v75
		var v77 uint64
		if v23 == 0x3 {
			v77 = 1
		}
		vals[77] = v77
		v78 := v12 & v77
		vals[78] = v78
		var v80 uint64
		if v78 != 0 {
			v80 = v79
		} else {
			v80 = v76
		}
		vals[80] = v80
		var v82 uint64
		if v23 == 0x6 {
			v82 = 1
		}
		vals[82] = v82
		v83 := v12 & v82
		vals[83] = v83
		var v85 uint64
		if v83 != 0 {
			v85 = v84
		} else {
			v85 = v81
		}
		vals[85] = v85
		var v87 uint64
		if v23 == 0x5 {
			v87 = 1
		}
		vals[87] = v87
		v88 := v10 & v87
		vals[88] = v88
		var v90 uint64
		if v88 != 0 {
			v90 = v89
		} else {
			v90 = v86
		}
		vals[90] = v90
		var v92 uint64
		if v23 == 0x4 {
			v92 = 1
		}
		vals[92] = v92
		v93 := v8 & v92
		vals[93] = v93
		var v95 uint64
		if v93 != 0 {
			v95 = v94
		} else {
			v95 = v91
		}
		vals[95] = v95
		v97 := v6 & v77
		vals[97] = v97
		var v99 uint64
		if v97 != 0 {
			v99 = v98
		} else {
			v99 = v96
		}
		vals[99] = v99
		var v101 uint64
		if v23 == 0x2 {
			v101 = 1
		}
		vals[101] = v101
		v102 := v4 & v101
		vals[102] = v102
		var v104 uint64
		if v102 != 0 {
			v104 = v103
		} else {
			v104 = v100
		}
		vals[104] = v104
		var v106 uint64
		if v23 == 0x1 {
			v106 = 1
		}
		vals[106] = v106
		v107 := v2 & v106
		vals[107] = v107
		var v109 uint64
		if v107 != 0 {
			v109 = v108
		} else {
			v109 = v105
		}
		vals[109] = v109
		var v110 uint64
		if v0 == 0x6 {
			v110 = 1
		}
		vals[110] = v110
	}
	done := vals[110] != 0
	l0 := vals[23] & 0x7
	l1 := vals[32] & 0xffff
	l2 := vals[34] & 0xffffff
	l3 := vals[38] & 0xffffff
	l4 := vals[42] & 0xffffff
	l5 := vals[34] & 0xffffff
	l6 := vals[48] & 0xffffff
	l7 := vals[51] & 0xffffff
	l8 := vals[54] & 0xffffff
	l9 := vals[57] & 0xffffff
	l10 := vals[60] & 0xffffff
	l11 := vals[34] & 0xffffff
	l12 := vals[65] & 0xffffff
	l13 := vals[68] & 0xffffff
	l14 := vals[34] & 0xffffff
	l15 := vals[72] & 0xffffff
	l16 := vals[75] & 0xffffff
	l17 := vals[80] & 0xffffff
	l18 := vals[85] & 0xffffff
	l19 := vals[90] & 0xffffff
	l20 := vals[95] & 0xffffff
	l21 := vals[99] & 0xffffff
	l22 := vals[104] & 0xffffff
	l23 := vals[109] & 0xffffff
	vals[0] = l0
	vals[13] = l1
	vals[33] = l2
	vals[35] = l3
	vals[39] = l4
	vals[43] = l5
	vals[44] = l6
	vals[49] = l7
	vals[52] = l8
	vals[55] = l9
	vals[58] = l10
	vals[61] = l11
	vals[62] = l12
	vals[66] = l13
	vals[69] = l14
	vals[70] = l15
	vals[73] = l16
	vals[76] = l17
	vals[81] = l18
	vals[86] = l19
	vals[91] = l20
	vals[96] = l21
	vals[100] = l22
	vals[105] = l23
	return cycles + 1, done
}

func step_aes_slice_t42(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[67]
	m0 := mems[0]
	v0 := vals[0]
	v13 := vals[13]
	v33 := vals[33]
	v37 := vals[37]
	v41 := vals[41]
	v46 := vals[46]
	v49 := vals[49]
	v52 := vals[52]
	v57 := vals[57]
	v62 := vals[62]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			var v25 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v25 = m0[addr] & 0xffff
			}
			v27 := (v25 - 0x1) & 0xffff
			v50 := (v49 + v27) & 0xffffff
			v32 := v27
			v36 := v33
			v40 := v37
			v45 := v41
			v48 := v46
			v51 := v50
			v56 := v52
			v61 := v57
			v66 := v62
			n1 := v32
			n2 := v36
			n3 := v40
			n4 := v45
			n5 := v48
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			v0 = 0x1
			v13 = n1
			v33 = n2
			v37 = n3
			v41 = n4
			v46 = n5
			v49 = n6
			v52 = n7
			v57 = n8
			v62 = n9
		case 0x1:
			v31 := v13
			v32 := v31
			v36 := v33
			v40 := v37
			v45 := v41
			v48 := v46
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v62
			n1 := v32
			n2 := v36
			n3 := v40
			n4 := v45
			n5 := v48
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			v0 = 0x2
			v13 = n1
			v33 = n2
			v37 = n3
			v41 = n4
			v46 = n5
			v49 = n6
			v52 = n7
			v57 = n8
			v62 = n9
		case 0x2:
			v44 := (v41 + 0x17) & 0xffffff
			v47 := (v46 + 0x1) & 0xffffff
			v31 := v13
			v32 := v31
			v36 := v33
			v40 := v37
			v45 := v44
			v48 := v47
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v62
			n1 := v32
			n2 := v36
			n3 := v40
			n4 := v45
			n5 := v48
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			v0 = 0x3
			v13 = n1
			v33 = n2
			v37 = n3
			v41 = n4
			v46 = n5
			v49 = n6
			v52 = n7
			v57 = n8
			v62 = n9
		case 0x3:
			v35 := (v33 + 0x9) & 0xffffff
			v39 := (v37 + 0x1) & 0xffffff
			v65 := (v62 + 0x1) & 0xffffff
			v31 := v13
			v32 := v31
			v36 := v35
			v40 := v39
			v45 := v41
			v48 := v46
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v65
			n1 := v32
			n2 := v36
			n3 := v40
			n4 := v45
			n5 := v48
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			v0 = 0x4
			v13 = n1
			v33 = n2
			v37 = n3
			v41 = n4
			v46 = n5
			v49 = n6
			v52 = n7
			v57 = n8
			v62 = n9
		case 0x4:
			v60 := (v57 + 0x1) & 0xffffff
			v31 := v13
			v32 := v31
			v36 := v33
			v40 := v37
			v45 := v41
			v48 := v46
			v51 := v49
			v56 := v52
			v61 := v60
			v66 := v62
			n1 := v32
			n2 := v36
			n3 := v40
			n4 := v45
			n5 := v48
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			v0 = 0x5
			v13 = n1
			v33 = n2
			v37 = n3
			v41 = n4
			v46 = n5
			v49 = n6
			v52 = n7
			v57 = n8
			v62 = n9
		case 0x5:
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			var v17 uint64
			if v15 != 0 {
				v17 = 0x6
			} else {
				v17 = 0x3
			}
			var v28 uint64
			if v13 != 0x0 {
				v28 = 1
			}
			v30 := (v13 - 0x1) & 0xffff
			v44 := (v41 + 0x17) & 0xffffff
			v47 := (v46 + 0x1) & 0xffffff
			v55 := (v52 + 0x1) & 0xffffff
			v18 := v17
			v19 := v18
			v20 := v19
			v21 := v20
			v22 := v21
			v23 := v22
			v29 := v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			v32 := v31
			v36 := v33
			v40 := v37
			v42 := v29
			var v45 uint64
			if v42 != 0 {
				v45 = v44
			} else {
				v45 = v41
			}
			var v48 uint64
			if v42 != 0 {
				v48 = v47
			} else {
				v48 = v46
			}
			v51 := v49
			var v53 uint64
			if v23 == 0x3 {
				v53 = 1
			}
			v54 := v53
			var v56 uint64
			if v54 != 0 {
				v56 = v55
			} else {
				v56 = v52
			}
			v61 := v57
			v66 := v62
			n0 := v23
			n1 := v32
			n2 := v36
			n3 := v40
			n4 := v45
			n5 := v48
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			v0 = n0
			v13 = n1
			v33 = n2
			v37 = n3
			v41 = n4
			v46 = n5
			v49 = n6
			v52 = n7
			v57 = n8
			v62 = n9
		case 0x6:
			break loop
		default:
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			var v17 uint64
			if v15 != 0 {
				v17 = 0x6
			} else {
				v17 = 0x3
			}
			var v25 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v25 = m0[addr] & 0xffff
			}
			v27 := (v25 - 0x1) & 0xffff
			var v28 uint64
			if v13 != 0x0 {
				v28 = 1
			}
			v30 := (v13 - 0x1) & 0xffff
			v35 := (v33 + 0x9) & 0xffffff
			v39 := (v37 + 0x1) & 0xffffff
			v44 := (v41 + 0x17) & 0xffffff
			v47 := (v46 + 0x1) & 0xffffff
			v50 := (v49 + v27) & 0xffffff
			v55 := (v52 + 0x1) & 0xffffff
			v60 := (v57 + 0x1) & 0xffffff
			v65 := (v62 + 0x1) & 0xffffff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v6 uint64
			if v0 == 0x2 {
				v6 = 1
			}
			var v8 uint64
			if v0 == 0x3 {
				v8 = 1
			}
			var v10 uint64
			if v0 == 0x4 {
				v10 = 1
			}
			var v12 uint64
			if v0 == 0x5 {
				v12 = 1
			}
			var v18 uint64
			if v12 != 0 {
				v18 = v17
			} else {
				v18 = v0
			}
			var v19 uint64
			if v10 != 0 {
				v19 = 0x5
			} else {
				v19 = v18
			}
			var v20 uint64
			if v8 != 0 {
				v20 = 0x4
			} else {
				v20 = v19
			}
			var v21 uint64
			if v6 != 0 {
				v21 = 0x3
			} else {
				v21 = v20
			}
			var v22 uint64
			if v4 != 0 {
				v22 = 0x2
			} else {
				v22 = v21
			}
			var v23 uint64
			if v2 != 0 {
				v23 = 0x1
			} else {
				v23 = v22
			}
			v29 := v12 & v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			var v32 uint64
			if v2 != 0 {
				v32 = v27
			} else {
				v32 = v31
			}
			var v36 uint64
			if v8 != 0 {
				v36 = v35
			} else {
				v36 = v33
			}
			var v40 uint64
			if v8 != 0 {
				v40 = v39
			} else {
				v40 = v37
			}
			v42 := (v6 | v29)
			var v45 uint64
			if v42 != 0 {
				v45 = v44
			} else {
				v45 = v41
			}
			var v48 uint64
			if v42 != 0 {
				v48 = v47
			} else {
				v48 = v46
			}
			var v51 uint64
			if v2 != 0 {
				v51 = v50
			} else {
				v51 = v49
			}
			var v53 uint64
			if v23 == 0x3 {
				v53 = 1
			}
			v54 := v12 & v53
			var v56 uint64
			if v54 != 0 {
				v56 = v55
			} else {
				v56 = v52
			}
			var v58 uint64
			if v23 == 0x5 {
				v58 = 1
			}
			v59 := v10 & v58
			var v61 uint64
			if v59 != 0 {
				v61 = v60
			} else {
				v61 = v57
			}
			var v63 uint64
			if v23 == 0x4 {
				v63 = 1
			}
			v64 := v8 & v63
			var v66 uint64
			if v64 != 0 {
				v66 = v65
			} else {
				v66 = v62
			}
			var v67 uint64
			if v0 == 0x6 {
				v67 = 1
			}
			if v67 != 0 {
				break loop
			}
			n0 := v23
			n1 := v32
			n2 := v36
			n3 := v40
			n4 := v45
			n5 := v48
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			v0 = n0
			v13 = n1
			v33 = n2
			v37 = n3
			v41 = n4
			v46 = n5
			v49 = n6
			v52 = n7
			v57 = n8
			v62 = n9
		}
	}
	vals[0] = v0
	vals[13] = v13
	vals[33] = v33
	vals[37] = v37
	vals[41] = v41
	vals[46] = v46
	vals[49] = v49
	vals[52] = v52
	vals[57] = v57
	vals[62] = v62
	var v15 uint64
	if v13 == 0x0 {
		v15 = 1
	}
	vals[15] = v15
	var v17 uint64
	if v15 != 0 {
		v17 = 0x6
	} else {
		v17 = 0x3
	}
	vals[17] = v17
	var v25 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v25 = m0[addr] & 0xffff
	}
	vals[25] = v25
	v27 := (v25 - 0x1) & 0xffff
	vals[27] = v27
	var v28 uint64
	if v13 != 0x0 {
		v28 = 1
	}
	vals[28] = v28
	v30 := (v13 - 0x1) & 0xffff
	vals[30] = v30
	v35 := (v33 + 0x9) & 0xffffff
	vals[35] = v35
	v39 := (v37 + 0x1) & 0xffffff
	vals[39] = v39
	v44 := (v41 + 0x17) & 0xffffff
	vals[44] = v44
	v47 := (v46 + 0x1) & 0xffffff
	vals[47] = v47
	v50 := (v49 + v27) & 0xffffff
	vals[50] = v50
	v55 := (v52 + 0x1) & 0xffffff
	vals[55] = v55
	v60 := (v57 + 0x1) & 0xffffff
	vals[60] = v60
	v65 := (v62 + 0x1) & 0xffffff
	vals[65] = v65
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x0
		vals[19] = 0x0
		vals[20] = 0x0
		vals[21] = 0x0
		vals[22] = 0x0
		vals[23] = 0x1
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v27
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		v40 := v37
		vals[40] = v40
		vals[42] = 0x0
		v45 := v41
		vals[45] = v45
		v48 := v46
		vals[48] = v48
		v51 := v50
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[67] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x1
		vals[19] = 0x1
		vals[20] = 0x1
		vals[21] = 0x1
		vals[22] = 0x2
		vals[23] = 0x2
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		v40 := v37
		vals[40] = v40
		vals[42] = 0x0
		v45 := v41
		vals[45] = v45
		v48 := v46
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[67] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x2
		vals[19] = 0x2
		vals[20] = 0x2
		vals[21] = 0x3
		vals[22] = 0x3
		vals[23] = 0x3
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		v40 := v37
		vals[40] = v40
		vals[42] = 0x1
		v45 := v44
		vals[45] = v45
		v48 := v47
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		vals[53] = 0x1
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[67] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x3
		vals[19] = 0x3
		vals[20] = 0x4
		vals[21] = 0x4
		vals[22] = 0x4
		vals[23] = 0x4
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v36 := v35
		vals[36] = v36
		v40 := v39
		vals[40] = v40
		vals[42] = 0x0
		v45 := v41
		vals[45] = v45
		v48 := v46
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x1
		vals[64] = 0x1
		v66 := v65
		vals[66] = v66
		vals[67] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x1
		vals[12] = 0x0
		vals[18] = 0x4
		vals[19] = 0x5
		vals[20] = 0x5
		vals[21] = 0x5
		vals[22] = 0x5
		vals[23] = 0x5
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		v40 := v37
		vals[40] = v40
		vals[42] = 0x0
		v45 := v41
		vals[45] = v45
		v48 := v46
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x1
		vals[59] = 0x1
		v61 := v60
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[67] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x1
		v18 := v17
		vals[18] = v18
		v19 := v18
		vals[19] = v19
		v20 := v19
		vals[20] = v20
		v21 := v20
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		v23 := v22
		vals[23] = v23
		v29 := v28
		vals[29] = v29
		var v31 uint64
		if v29 != 0 {
			v31 = v30
		} else {
			v31 = v13
		}
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		v40 := v37
		vals[40] = v40
		v42 := v29
		vals[42] = v42
		var v45 uint64
		if v42 != 0 {
			v45 = v44
		} else {
			v45 = v41
		}
		vals[45] = v45
		var v48 uint64
		if v42 != 0 {
			v48 = v47
		} else {
			v48 = v46
		}
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		var v53 uint64
		if v23 == 0x3 {
			v53 = 1
		}
		vals[53] = v53
		v54 := v53
		vals[54] = v54
		var v56 uint64
		if v54 != 0 {
			v56 = v55
		} else {
			v56 = v52
		}
		vals[56] = v56
		var v58 uint64
		if v23 == 0x5 {
			v58 = 1
		}
		vals[58] = v58
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		var v63 uint64
		if v23 == 0x4 {
			v63 = 1
		}
		vals[63] = v63
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[67] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x6
		vals[19] = 0x6
		vals[20] = 0x6
		vals[21] = 0x6
		vals[22] = 0x6
		vals[23] = 0x6
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		v40 := v37
		vals[40] = v40
		vals[42] = 0x0
		v45 := v41
		vals[45] = v45
		v48 := v46
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[67] = 0x1
	default:
		var v2 uint64
		if v0 == 0x0 {
			v2 = 1
		}
		vals[2] = v2
		var v4 uint64
		if v0 == 0x1 {
			v4 = 1
		}
		vals[4] = v4
		var v6 uint64
		if v0 == 0x2 {
			v6 = 1
		}
		vals[6] = v6
		var v8 uint64
		if v0 == 0x3 {
			v8 = 1
		}
		vals[8] = v8
		var v10 uint64
		if v0 == 0x4 {
			v10 = 1
		}
		vals[10] = v10
		var v12 uint64
		if v0 == 0x5 {
			v12 = 1
		}
		vals[12] = v12
		var v18 uint64
		if v12 != 0 {
			v18 = v17
		} else {
			v18 = v0
		}
		vals[18] = v18
		var v19 uint64
		if v10 != 0 {
			v19 = 0x5
		} else {
			v19 = v18
		}
		vals[19] = v19
		var v20 uint64
		if v8 != 0 {
			v20 = 0x4
		} else {
			v20 = v19
		}
		vals[20] = v20
		var v21 uint64
		if v6 != 0 {
			v21 = 0x3
		} else {
			v21 = v20
		}
		vals[21] = v21
		var v22 uint64
		if v4 != 0 {
			v22 = 0x2
		} else {
			v22 = v21
		}
		vals[22] = v22
		var v23 uint64
		if v2 != 0 {
			v23 = 0x1
		} else {
			v23 = v22
		}
		vals[23] = v23
		v29 := v12 & v28
		vals[29] = v29
		var v31 uint64
		if v29 != 0 {
			v31 = v30
		} else {
			v31 = v13
		}
		vals[31] = v31
		var v32 uint64
		if v2 != 0 {
			v32 = v27
		} else {
			v32 = v31
		}
		vals[32] = v32
		var v36 uint64
		if v8 != 0 {
			v36 = v35
		} else {
			v36 = v33
		}
		vals[36] = v36
		var v40 uint64
		if v8 != 0 {
			v40 = v39
		} else {
			v40 = v37
		}
		vals[40] = v40
		v42 := (v6 | v29)
		vals[42] = v42
		var v45 uint64
		if v42 != 0 {
			v45 = v44
		} else {
			v45 = v41
		}
		vals[45] = v45
		var v48 uint64
		if v42 != 0 {
			v48 = v47
		} else {
			v48 = v46
		}
		vals[48] = v48
		var v51 uint64
		if v2 != 0 {
			v51 = v50
		} else {
			v51 = v49
		}
		vals[51] = v51
		var v53 uint64
		if v23 == 0x3 {
			v53 = 1
		}
		vals[53] = v53
		v54 := v12 & v53
		vals[54] = v54
		var v56 uint64
		if v54 != 0 {
			v56 = v55
		} else {
			v56 = v52
		}
		vals[56] = v56
		var v58 uint64
		if v23 == 0x5 {
			v58 = 1
		}
		vals[58] = v58
		v59 := v10 & v58
		vals[59] = v59
		var v61 uint64
		if v59 != 0 {
			v61 = v60
		} else {
			v61 = v57
		}
		vals[61] = v61
		var v63 uint64
		if v23 == 0x4 {
			v63 = 1
		}
		vals[63] = v63
		v64 := v8 & v63
		vals[64] = v64
		var v66 uint64
		if v64 != 0 {
			v66 = v65
		} else {
			v66 = v62
		}
		vals[66] = v66
		var v67 uint64
		if v0 == 0x6 {
			v67 = 1
		}
		vals[67] = v67
	}
	done := vals[67] != 0
	l0 := vals[23] & 0x7
	l1 := vals[32] & 0xffff
	l2 := vals[36] & 0xffffff
	l3 := vals[40] & 0xffffff
	l4 := vals[45] & 0xffffff
	l5 := vals[48] & 0xffffff
	l6 := vals[51] & 0xffffff
	l7 := vals[56] & 0xffffff
	l8 := vals[61] & 0xffffff
	l9 := vals[66] & 0xffffff
	vals[0] = l0
	vals[13] = l1
	vals[33] = l2
	vals[37] = l3
	vals[41] = l4
	vals[46] = l5
	vals[49] = l6
	vals[52] = l7
	vals[57] = l8
	vals[62] = l9
	return cycles + 1, done
}

func init() {
	rtl.RegisterNative("22f29b2846a49eaca86ca01e88524a0044aa72e94d1bcc840c3a2b5f9856d219", "aes_slice_all", step_aes_slice_all)
	rtl.RegisterNative("a276e22e970259a3da68a3d092bfa716d99fc3af004f0f8a9e536dacd8de8dcb", "aes_slice_t42", step_aes_slice_t42)
}
