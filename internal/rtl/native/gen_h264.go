// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func step_h264_cone(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[147]
	m0 := mems[0]
	v0 := vals[0]
	v7 := vals[7]
	v13 := vals[13]
	v27 := vals[27]
	v31 := vals[31]
	v36 := vals[36]
	v40 := vals[40]
	v127 := vals[127]
	v135 := vals[135]
	v138 := vals[138]
	v141 := vals[141]
	v144 := vals[144]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v73 uint64
		if v40 != 0x0 {
			v73 = 1
		}
		v75 := (v40 - 0x1) & 0xff
		var v76 uint64
		if v73 != 0 {
			v76 = v75
		} else {
			v76 = v40
		}
		var v96 uint64
		if v36 != 0x0 {
			v96 = 1
		}
		v97 := (v36 - 0x1) & 0xff
		var v98 uint64
		if v96 != 0 {
			v98 = v97
		} else {
			v98 = v36
		}
		var v105 uint64
		if v31 != 0x0 {
			v105 = 1
		}
		v106 := (v31 - 0x1) & 0xff
		var v107 uint64
		if v105 != 0 {
			v107 = v106
		} else {
			v107 = v31
		}
		var v115 uint64
		if v27 != 0x0 {
			v115 = 1
		}
		v116 := (v27 - 0x1) & 0xff
		var v117 uint64
		if v115 != 0 {
			v117 = v116
		} else {
			v117 = v27
		}
		switch v0 {
		case 0x0:
			var v123 uint64
			if v7 != 0x0 {
				v123 = 1
			}
			v124 := (v7 - 0x1) & 0xff
			var v125 uint64
			if v123 != 0 {
				v125 = v124
			} else {
				v125 = v7
			}
			v77 := v76
			v99 := v98
			v108 := v107
			v118 := v117
			v121 := v13
			v126 := v125
			v134 := v127
			v137 := v135
			v140 := v138
			v143 := v141
			v146 := v144
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = 0x1
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		case 0x1:
			var v14 uint64
			if addr := uint64(v13); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0xfffffff
			}
			v65 := (v14 >> 2)
			v67 := v65 & 0x3f
			v122 := (v67 >> 1)
			v145 := (v144 + 0x1) & 0xffffff
			v77 := v76
			v99 := v98
			v108 := v107
			v118 := v117
			v121 := v13
			v126 := v122
			v134 := v127
			v137 := v135
			v140 := v138
			v143 := v141
			v146 := v145
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = 0x2
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		case 0x2:
			var v9 uint64
			if v7 == 0x0 {
				v9 = 1
			}
			var v123 uint64
			if v7 != 0x0 {
				v123 = 1
			}
			v124 := (v7 - 0x1) & 0xff
			var v125 uint64
			if v123 != 0 {
				v125 = v124
			} else {
				v125 = v7
			}
			var v11 uint64
			if v9 != 0 {
				v11 = 0x3
			} else {
				v11 = 0x2
			}
			v56 := v11
			v57 := v56
			v58 := v57
			v77 := v76
			v99 := v98
			v108 := v107
			v118 := v117
			v121 := v13
			v126 := v125
			v134 := v127
			v137 := v135
			v140 := v138
			v143 := v141
			v146 := v144
			n0 := v58
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = n0
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		case 0x3:
			var v14 uint64
			if addr := uint64(v13); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0xfffffff
			}
			v16 := v14 & 0x3
			var v18 uint64
			if v16 == 0x0 {
				v18 = 1
			}
			var v21 uint64
			if v16 == 0x1 {
				v21 = 1
			}
			var v24 uint64
			if v21 != 0 {
				v24 = 0x4
			} else {
				v24 = 0x5
			}
			var v25 uint64
			if v18 != 0 {
				v25 = 0x7
			} else {
				v25 = v24
			}
			v65 := (v14 >> 2)
			v67 := v65 & 0x3f
			var v69 uint64
			if v67 != 0x0 {
				v69 = 1
			}
			var v72 uint64
			if v69 != 0 {
				v72 = 0xc
			} else {
				v72 = 0x8
			}
			v81 := (v14 >> 9)
			v83 := v81 & 0x7
			v84 := v83
			v86 := (v84 << 1) & 0xff
			v87 := (v84 + v86) & 0xff
			var v101 uint64
			if v16 == 0x2 {
				v101 = 1
			}
			v104 := (0x3 + v87) & 0xff
			v111 := v67
			v112 := (v67 >> 2)
			v113 := (v111 - v112) & 0xff
			v114 := (0xa + v113) & 0xff
			var v123 uint64
			if v7 != 0x0 {
				v123 = 1
			}
			v124 := (v7 - 0x1) & 0xff
			var v125 uint64
			if v123 != 0 {
				v125 = v124
			} else {
				v125 = v7
			}
			v129 := ^v69 & 0x1
			v133 := (v127 + 0x1) & 0xffffff
			v139 := (v138 + 0x1) & 0xffffff
			v142 := (v141 + 0x1) & 0xffffff
			v55 := v25
			v56 := v55
			v57 := v56
			v58 := v57
			v62 := v18
			v63 := v62
			var v77 uint64
			if v63 != 0 {
				v77 = v72
			} else {
				v77 = v76
			}
			v99 := v98
			v102 := v101
			var v108 uint64
			if v102 != 0 {
				v108 = v104
			} else {
				v108 = v107
			}
			v109 := v21
			var v118 uint64
			if v109 != 0 {
				v118 = v114
			} else {
				v118 = v117
			}
			v121 := v13
			v126 := v125
			v128 := v63 & v69
			v130 := v63 & v129
			v131 := (v128 | v130)
			var v134 uint64
			if v131 != 0 {
				v134 = v133
			} else {
				v134 = v127
			}
			v137 := v135
			var v140 uint64
			if v102 != 0 {
				v140 = v139
			} else {
				v140 = v138
			}
			var v143 uint64
			if v109 != 0 {
				v143 = v142
			} else {
				v143 = v141
			}
			v146 := v144
			n0 := v58
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = n0
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		case 0x4:
			var v14 uint64
			if addr := uint64(v13); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0xfffffff
			}
			var v28 uint64
			if v27 == 0x0 {
				v28 = 1
			}
			v65 := (v14 >> 2)
			v67 := v65 & 0x3f
			var v69 uint64
			if v67 != 0x0 {
				v69 = 1
			}
			var v72 uint64
			if v69 != 0 {
				v72 = 0xc
			} else {
				v72 = 0x8
			}
			var v123 uint64
			if v7 != 0x0 {
				v123 = 1
			}
			v124 := (v7 - 0x1) & 0xff
			var v125 uint64
			if v123 != 0 {
				v125 = v124
			} else {
				v125 = v7
			}
			v129 := ^v69 & 0x1
			v133 := (v127 + 0x1) & 0xffffff
			var v29 uint64
			if v28 != 0 {
				v29 = 0x7
			} else {
				v29 = 0x4
			}
			v54 := v29
			v55 := v54
			v56 := v55
			v57 := v56
			v58 := v57
			v59 := v28
			v61 := v59
			v63 := v61
			var v77 uint64
			if v63 != 0 {
				v77 = v72
			} else {
				v77 = v76
			}
			v99 := v98
			v108 := v107
			v118 := v117
			v121 := v13
			v126 := v125
			v128 := v63 & v69
			v130 := v63 & v129
			v131 := (v128 | v130)
			var v134 uint64
			if v131 != 0 {
				v134 = v133
			} else {
				v134 = v127
			}
			v137 := v135
			v140 := v138
			v143 := v141
			v146 := v144
			n0 := v58
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = n0
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		case 0x5:
			var v14 uint64
			if addr := uint64(v13); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0xfffffff
			}
			var v32 uint64
			if v31 == 0x0 {
				v32 = 1
			}
			v81 := (v14 >> 9)
			v83 := v81 & 0x7
			v84 := v83
			v86 := (v84 << 1) & 0xff
			v87 := (v84 + v86) & 0xff
			v88 := (0x2 + v87) & 0xff
			v90 := (v14 >> 8)
			v92 := v90 & 0x1
			var v94 uint64
			if v92 != 0 {
				v94 = 0x14
			} else {
				v94 = 0x0
			}
			v95 := (v88 + v94) & 0xff
			var v123 uint64
			if v7 != 0x0 {
				v123 = 1
			}
			v124 := (v7 - 0x1) & 0xff
			var v125 uint64
			if v123 != 0 {
				v125 = v124
			} else {
				v125 = v7
			}
			v136 := (v135 + 0x1) & 0xffffff
			var v34 uint64
			if v32 != 0 {
				v34 = 0x6
			} else {
				v34 = 0x5
			}
			v53 := v34
			v54 := v53
			v55 := v54
			v56 := v55
			v57 := v56
			v58 := v57
			v77 := v76
			v78 := v32
			var v99 uint64
			if v78 != 0 {
				v99 = v95
			} else {
				v99 = v98
			}
			v108 := v107
			v118 := v117
			v121 := v13
			v126 := v125
			v134 := v127
			var v137 uint64
			if v78 != 0 {
				v137 = v136
			} else {
				v137 = v135
			}
			v140 := v138
			v143 := v141
			v146 := v144
			n0 := v58
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = n0
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		case 0x6:
			var v14 uint64
			if addr := uint64(v13); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0xfffffff
			}
			var v37 uint64
			if v36 == 0x0 {
				v37 = 1
			}
			v65 := (v14 >> 2)
			v67 := v65 & 0x3f
			var v69 uint64
			if v67 != 0x0 {
				v69 = 1
			}
			var v72 uint64
			if v69 != 0 {
				v72 = 0xc
			} else {
				v72 = 0x8
			}
			var v123 uint64
			if v7 != 0x0 {
				v123 = 1
			}
			v124 := (v7 - 0x1) & 0xff
			var v125 uint64
			if v123 != 0 {
				v125 = v124
			} else {
				v125 = v7
			}
			v129 := ^v69 & 0x1
			v133 := (v127 + 0x1) & 0xffffff
			var v38 uint64
			if v37 != 0 {
				v38 = 0x7
			} else {
				v38 = 0x6
			}
			v52 := v38
			v53 := v52
			v54 := v53
			v55 := v54
			v56 := v55
			v57 := v56
			v58 := v57
			v60 := v37
			v61 := v60
			v63 := v61
			var v77 uint64
			if v63 != 0 {
				v77 = v72
			} else {
				v77 = v76
			}
			v99 := v98
			v108 := v107
			v118 := v117
			v121 := v13
			v126 := v125
			v128 := v63 & v69
			v130 := v63 & v129
			v131 := (v128 | v130)
			var v134 uint64
			if v131 != 0 {
				v134 = v133
			} else {
				v134 = v127
			}
			v137 := v135
			v140 := v138
			v143 := v141
			v146 := v144
			n0 := v58
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = n0
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		case 0x7:
			var v41 uint64
			if v40 == 0x0 {
				v41 = 1
			}
			var v123 uint64
			if v7 != 0x0 {
				v123 = 1
			}
			v124 := (v7 - 0x1) & 0xff
			var v125 uint64
			if v123 != 0 {
				v125 = v124
			} else {
				v125 = v7
			}
			var v43 uint64
			if v41 != 0 {
				v43 = 0x8
			} else {
				v43 = 0x7
			}
			v51 := v43
			v52 := v51
			v53 := v52
			v54 := v53
			v55 := v54
			v56 := v55
			v57 := v56
			v58 := v57
			v77 := v76
			v99 := v98
			v108 := v107
			v118 := v117
			v121 := v13
			v126 := v125
			v134 := v127
			v137 := v135
			v140 := v138
			v143 := v141
			v146 := v144
			n0 := v58
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = n0
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		case 0x8:
			var v46 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v46 = m0[addr] & 0x1fff
			}
			var v47 uint64
			if v46 <= v13 {
				v47 = 1
			}
			var v49 uint64
			if v47 != 0 {
				v49 = 0x9
			} else {
				v49 = 0x1
			}
			v120 := (v13 + 0x1) & 0x1fff
			var v123 uint64
			if v7 != 0x0 {
				v123 = 1
			}
			v124 := (v7 - 0x1) & 0xff
			var v125 uint64
			if v123 != 0 {
				v125 = v124
			} else {
				v125 = v7
			}
			v50 := v49
			v51 := v50
			v52 := v51
			v53 := v52
			v54 := v53
			v55 := v54
			v56 := v55
			v57 := v56
			v58 := v57
			v77 := v76
			v99 := v98
			v108 := v107
			v118 := v117
			v121 := v120
			v126 := v125
			v134 := v127
			v137 := v135
			v140 := v138
			v143 := v141
			v146 := v144
			n0 := v58
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = n0
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		case 0x9:
			break loop
		default:
			var v9 uint64
			if v7 == 0x0 {
				v9 = 1
			}
			var v14 uint64
			if addr := uint64(v13); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0xfffffff
			}
			v16 := v14 & 0x3
			var v18 uint64
			if v16 == 0x0 {
				v18 = 1
			}
			var v21 uint64
			if v16 == 0x1 {
				v21 = 1
			}
			var v24 uint64
			if v21 != 0 {
				v24 = 0x4
			} else {
				v24 = 0x5
			}
			var v25 uint64
			if v18 != 0 {
				v25 = 0x7
			} else {
				v25 = v24
			}
			var v28 uint64
			if v27 == 0x0 {
				v28 = 1
			}
			var v32 uint64
			if v31 == 0x0 {
				v32 = 1
			}
			var v37 uint64
			if v36 == 0x0 {
				v37 = 1
			}
			var v41 uint64
			if v40 == 0x0 {
				v41 = 1
			}
			var v46 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v46 = m0[addr] & 0x1fff
			}
			var v47 uint64
			if v46 <= v13 {
				v47 = 1
			}
			var v49 uint64
			if v47 != 0 {
				v49 = 0x9
			} else {
				v49 = 0x1
			}
			v65 := (v14 >> 2)
			v67 := v65 & 0x3f
			var v69 uint64
			if v67 != 0x0 {
				v69 = 1
			}
			var v72 uint64
			if v69 != 0 {
				v72 = 0xc
			} else {
				v72 = 0x8
			}
			v81 := (v14 >> 9)
			v83 := v81 & 0x7
			v84 := v83
			v86 := (v84 << 1) & 0xff
			v87 := (v84 + v86) & 0xff
			v88 := (0x2 + v87) & 0xff
			v90 := (v14 >> 8)
			v92 := v90 & 0x1
			var v94 uint64
			if v92 != 0 {
				v94 = 0x14
			} else {
				v94 = 0x0
			}
			v95 := (v88 + v94) & 0xff
			var v101 uint64
			if v16 == 0x2 {
				v101 = 1
			}
			v104 := (0x3 + v87) & 0xff
			v111 := v67
			v112 := (v67 >> 2)
			v113 := (v111 - v112) & 0xff
			v114 := (0xa + v113) & 0xff
			v120 := (v13 + 0x1) & 0x1fff
			v122 := (v67 >> 1)
			var v123 uint64
			if v7 != 0x0 {
				v123 = 1
			}
			v124 := (v7 - 0x1) & 0xff
			var v125 uint64
			if v123 != 0 {
				v125 = v124
			} else {
				v125 = v7
			}
			v129 := ^v69 & 0x1
			v133 := (v127 + 0x1) & 0xffffff
			v136 := (v135 + 0x1) & 0xffffff
			v139 := (v138 + 0x1) & 0xffffff
			v142 := (v141 + 0x1) & 0xffffff
			v145 := (v144 + 0x1) & 0xffffff
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
			var v11 uint64
			if v9 != 0 {
				v11 = 0x3
			} else {
				v11 = v0
			}
			var v12 uint64
			if v0 == 0x3 {
				v12 = 1
			}
			var v26 uint64
			if v0 == 0x4 {
				v26 = 1
			}
			var v29 uint64
			if v28 != 0 {
				v29 = 0x7
			} else {
				v29 = v0
			}
			var v30 uint64
			if v0 == 0x5 {
				v30 = 1
			}
			var v34 uint64
			if v32 != 0 {
				v34 = 0x6
			} else {
				v34 = v0
			}
			var v35 uint64
			if v0 == 0x6 {
				v35 = 1
			}
			var v38 uint64
			if v37 != 0 {
				v38 = 0x7
			} else {
				v38 = v0
			}
			var v39 uint64
			if v0 == 0x7 {
				v39 = 1
			}
			var v43 uint64
			if v41 != 0 {
				v43 = 0x8
			} else {
				v43 = v0
			}
			var v44 uint64
			if v0 == 0x8 {
				v44 = 1
			}
			var v50 uint64
			if v44 != 0 {
				v50 = v49
			} else {
				v50 = v0
			}
			var v51 uint64
			if v39 != 0 {
				v51 = v43
			} else {
				v51 = v50
			}
			var v52 uint64
			if v35 != 0 {
				v52 = v38
			} else {
				v52 = v51
			}
			var v53 uint64
			if v30 != 0 {
				v53 = v34
			} else {
				v53 = v52
			}
			var v54 uint64
			if v26 != 0 {
				v54 = v29
			} else {
				v54 = v53
			}
			var v55 uint64
			if v12 != 0 {
				v55 = v25
			} else {
				v55 = v54
			}
			var v56 uint64
			if v6 != 0 {
				v56 = v11
			} else {
				v56 = v55
			}
			var v57 uint64
			if v4 != 0 {
				v57 = 0x2
			} else {
				v57 = v56
			}
			var v58 uint64
			if v2 != 0 {
				v58 = 0x1
			} else {
				v58 = v57
			}
			v59 := v26 & v28
			v60 := v35 & v37
			v61 := (v59 | v60)
			v62 := v12 & v18
			v63 := (v61 | v62)
			var v77 uint64
			if v63 != 0 {
				v77 = v72
			} else {
				v77 = v76
			}
			v78 := v30 & v32
			var v99 uint64
			if v78 != 0 {
				v99 = v95
			} else {
				v99 = v98
			}
			v102 := v12 & v101
			var v108 uint64
			if v102 != 0 {
				v108 = v104
			} else {
				v108 = v107
			}
			v109 := v12 & v21
			var v118 uint64
			if v109 != 0 {
				v118 = v114
			} else {
				v118 = v117
			}
			var v121 uint64
			if v44 != 0 {
				v121 = v120
			} else {
				v121 = v13
			}
			var v126 uint64
			if v4 != 0 {
				v126 = v122
			} else {
				v126 = v125
			}
			v128 := v63 & v69
			v130 := v63 & v129
			v131 := (v128 | v130)
			var v134 uint64
			if v131 != 0 {
				v134 = v133
			} else {
				v134 = v127
			}
			var v137 uint64
			if v78 != 0 {
				v137 = v136
			} else {
				v137 = v135
			}
			var v140 uint64
			if v102 != 0 {
				v140 = v139
			} else {
				v140 = v138
			}
			var v143 uint64
			if v109 != 0 {
				v143 = v142
			} else {
				v143 = v141
			}
			var v146 uint64
			if v4 != 0 {
				v146 = v145
			} else {
				v146 = v144
			}
			var v147 uint64
			if v0 == 0x9 {
				v147 = 1
			}
			if v147 != 0 {
				break loop
			}
			n0 := v58
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = n0
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		}
	}
	vals[0] = v0
	vals[40] = v40
	vals[36] = v36
	vals[31] = v31
	vals[27] = v27
	vals[13] = v13
	vals[7] = v7
	vals[127] = v127
	vals[135] = v135
	vals[138] = v138
	vals[141] = v141
	vals[144] = v144
	var v9 uint64
	if v7 == 0x0 {
		v9 = 1
	}
	vals[9] = v9
	var v14 uint64
	if addr := uint64(v13); addr < uint64(len(m0)) {
		v14 = m0[addr] & 0xfffffff
	}
	vals[14] = v14
	v16 := v14 & 0x3
	vals[16] = v16
	var v18 uint64
	if v16 == 0x0 {
		v18 = 1
	}
	vals[18] = v18
	var v21 uint64
	if v16 == 0x1 {
		v21 = 1
	}
	vals[21] = v21
	var v24 uint64
	if v21 != 0 {
		v24 = 0x4
	} else {
		v24 = 0x5
	}
	vals[24] = v24
	var v25 uint64
	if v18 != 0 {
		v25 = 0x7
	} else {
		v25 = v24
	}
	vals[25] = v25
	var v28 uint64
	if v27 == 0x0 {
		v28 = 1
	}
	vals[28] = v28
	var v32 uint64
	if v31 == 0x0 {
		v32 = 1
	}
	vals[32] = v32
	var v37 uint64
	if v36 == 0x0 {
		v37 = 1
	}
	vals[37] = v37
	var v41 uint64
	if v40 == 0x0 {
		v41 = 1
	}
	vals[41] = v41
	var v46 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v46 = m0[addr] & 0x1fff
	}
	vals[46] = v46
	var v47 uint64
	if v46 <= v13 {
		v47 = 1
	}
	vals[47] = v47
	var v49 uint64
	if v47 != 0 {
		v49 = 0x9
	} else {
		v49 = 0x1
	}
	vals[49] = v49
	v65 := (v14 >> 2)
	vals[65] = v65
	v67 := v65 & 0x3f
	vals[67] = v67
	var v69 uint64
	if v67 != 0x0 {
		v69 = 1
	}
	vals[69] = v69
	var v72 uint64
	if v69 != 0 {
		v72 = 0xc
	} else {
		v72 = 0x8
	}
	vals[72] = v72
	var v73 uint64
	if v40 != 0x0 {
		v73 = 1
	}
	vals[73] = v73
	v75 := (v40 - 0x1) & 0xff
	vals[75] = v75
	var v76 uint64
	if v73 != 0 {
		v76 = v75
	} else {
		v76 = v40
	}
	vals[76] = v76
	v81 := (v14 >> 9)
	vals[81] = v81
	v83 := v81 & 0x7
	vals[83] = v83
	v84 := v83
	vals[84] = v84
	v86 := (v84 << 1) & 0xff
	vals[86] = v86
	v87 := (v84 + v86) & 0xff
	vals[87] = v87
	v88 := (0x2 + v87) & 0xff
	vals[88] = v88
	v90 := (v14 >> 8)
	vals[90] = v90
	v92 := v90 & 0x1
	vals[92] = v92
	var v94 uint64
	if v92 != 0 {
		v94 = 0x14
	} else {
		v94 = 0x0
	}
	vals[94] = v94
	v95 := (v88 + v94) & 0xff
	vals[95] = v95
	var v96 uint64
	if v36 != 0x0 {
		v96 = 1
	}
	vals[96] = v96
	v97 := (v36 - 0x1) & 0xff
	vals[97] = v97
	var v98 uint64
	if v96 != 0 {
		v98 = v97
	} else {
		v98 = v36
	}
	vals[98] = v98
	var v101 uint64
	if v16 == 0x2 {
		v101 = 1
	}
	vals[101] = v101
	v104 := (0x3 + v87) & 0xff
	vals[104] = v104
	var v105 uint64
	if v31 != 0x0 {
		v105 = 1
	}
	vals[105] = v105
	v106 := (v31 - 0x1) & 0xff
	vals[106] = v106
	var v107 uint64
	if v105 != 0 {
		v107 = v106
	} else {
		v107 = v31
	}
	vals[107] = v107
	v111 := v67
	vals[111] = v111
	v112 := (v67 >> 2)
	vals[112] = v112
	v113 := (v111 - v112) & 0xff
	vals[113] = v113
	v114 := (0xa + v113) & 0xff
	vals[114] = v114
	var v115 uint64
	if v27 != 0x0 {
		v115 = 1
	}
	vals[115] = v115
	v116 := (v27 - 0x1) & 0xff
	vals[116] = v116
	var v117 uint64
	if v115 != 0 {
		v117 = v116
	} else {
		v117 = v27
	}
	vals[117] = v117
	v120 := (v13 + 0x1) & 0x1fff
	vals[120] = v120
	v122 := (v67 >> 1)
	vals[122] = v122
	var v123 uint64
	if v7 != 0x0 {
		v123 = 1
	}
	vals[123] = v123
	v124 := (v7 - 0x1) & 0xff
	vals[124] = v124
	var v125 uint64
	if v123 != 0 {
		v125 = v124
	} else {
		v125 = v7
	}
	vals[125] = v125
	v129 := ^v69 & 0x1
	vals[129] = v129
	v133 := (v127 + 0x1) & 0xffffff
	vals[133] = v133
	v136 := (v135 + 0x1) & 0xffffff
	vals[136] = v136
	v139 := (v138 + 0x1) & 0xffffff
	vals[139] = v139
	v142 := (v141 + 0x1) & 0xffffff
	vals[142] = v142
	v145 := (v144 + 0x1) & 0xffffff
	vals[145] = v145
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x0
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[26] = 0x0
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x0
		}
		vals[29] = v29
		vals[30] = 0x0
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x0
		}
		vals[34] = v34
		vals[35] = 0x0
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x0
		}
		vals[38] = v38
		vals[39] = 0x0
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x0
		}
		vals[43] = v43
		vals[44] = 0x0
		vals[50] = 0x0
		vals[51] = 0x0
		vals[52] = 0x0
		vals[53] = 0x0
		vals[54] = 0x0
		vals[55] = 0x0
		vals[56] = 0x0
		vals[57] = 0x0
		vals[58] = 0x1
		vals[59] = 0x0
		vals[60] = 0x0
		vals[61] = 0x0
		vals[62] = 0x0
		vals[63] = 0x0
		v77 := v76
		vals[77] = v77
		vals[78] = 0x0
		v99 := v98
		vals[99] = v99
		vals[102] = 0x0
		v108 := v107
		vals[108] = v108
		vals[109] = 0x0
		v118 := v117
		vals[118] = v118
		v121 := v13
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[130] = 0x0
		vals[131] = 0x0
		v134 := v127
		vals[134] = v134
		v137 := v135
		vals[137] = v137
		v140 := v138
		vals[140] = v140
		v143 := v141
		vals[143] = v143
		v146 := v144
		vals[146] = v146
		vals[147] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x1
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[26] = 0x0
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x1
		}
		vals[29] = v29
		vals[30] = 0x0
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x1
		}
		vals[34] = v34
		vals[35] = 0x0
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x1
		}
		vals[38] = v38
		vals[39] = 0x0
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x1
		}
		vals[43] = v43
		vals[44] = 0x0
		vals[50] = 0x1
		vals[51] = 0x1
		vals[52] = 0x1
		vals[53] = 0x1
		vals[54] = 0x1
		vals[55] = 0x1
		vals[56] = 0x1
		vals[57] = 0x2
		vals[58] = 0x2
		vals[59] = 0x0
		vals[60] = 0x0
		vals[61] = 0x0
		vals[62] = 0x0
		vals[63] = 0x0
		v77 := v76
		vals[77] = v77
		vals[78] = 0x0
		v99 := v98
		vals[99] = v99
		vals[102] = 0x0
		v108 := v107
		vals[108] = v108
		vals[109] = 0x0
		v118 := v117
		vals[118] = v118
		v121 := v13
		vals[121] = v121
		v126 := v122
		vals[126] = v126
		vals[128] = 0x0
		vals[130] = 0x0
		vals[131] = 0x0
		v134 := v127
		vals[134] = v134
		v137 := v135
		vals[137] = v137
		v140 := v138
		vals[140] = v140
		v143 := v141
		vals[143] = v143
		v146 := v145
		vals[146] = v146
		vals[147] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x2
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[26] = 0x0
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x2
		}
		vals[29] = v29
		vals[30] = 0x0
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x2
		}
		vals[34] = v34
		vals[35] = 0x0
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x2
		}
		vals[38] = v38
		vals[39] = 0x0
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x2
		}
		vals[43] = v43
		vals[44] = 0x0
		vals[50] = 0x2
		vals[51] = 0x2
		vals[52] = 0x2
		vals[53] = 0x2
		vals[54] = 0x2
		vals[55] = 0x2
		v56 := v11
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		vals[59] = 0x0
		vals[60] = 0x0
		vals[61] = 0x0
		vals[62] = 0x0
		vals[63] = 0x0
		v77 := v76
		vals[77] = v77
		vals[78] = 0x0
		v99 := v98
		vals[99] = v99
		vals[102] = 0x0
		v108 := v107
		vals[108] = v108
		vals[109] = 0x0
		v118 := v117
		vals[118] = v118
		v121 := v13
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[130] = 0x0
		vals[131] = 0x0
		v134 := v127
		vals[134] = v134
		v137 := v135
		vals[137] = v137
		v140 := v138
		vals[140] = v140
		v143 := v141
		vals[143] = v143
		v146 := v144
		vals[146] = v146
		vals[147] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x3
		}
		vals[11] = v11
		vals[12] = 0x1
		vals[26] = 0x0
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x3
		}
		vals[29] = v29
		vals[30] = 0x0
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x3
		}
		vals[34] = v34
		vals[35] = 0x0
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x3
		}
		vals[38] = v38
		vals[39] = 0x0
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x3
		}
		vals[43] = v43
		vals[44] = 0x0
		vals[50] = 0x3
		vals[51] = 0x3
		vals[52] = 0x3
		vals[53] = 0x3
		vals[54] = 0x3
		v55 := v25
		vals[55] = v55
		v56 := v55
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		vals[59] = 0x0
		vals[60] = 0x0
		vals[61] = 0x0
		v62 := v18
		vals[62] = v62
		v63 := v62
		vals[63] = v63
		var v77 uint64
		if v63 != 0 {
			v77 = v72
		} else {
			v77 = v76
		}
		vals[77] = v77
		vals[78] = 0x0
		v99 := v98
		vals[99] = v99
		v102 := v101
		vals[102] = v102
		var v108 uint64
		if v102 != 0 {
			v108 = v104
		} else {
			v108 = v107
		}
		vals[108] = v108
		v109 := v21
		vals[109] = v109
		var v118 uint64
		if v109 != 0 {
			v118 = v114
		} else {
			v118 = v117
		}
		vals[118] = v118
		v121 := v13
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		v128 := v63 & v69
		vals[128] = v128
		v130 := v63 & v129
		vals[130] = v130
		v131 := (v128 | v130)
		vals[131] = v131
		var v134 uint64
		if v131 != 0 {
			v134 = v133
		} else {
			v134 = v127
		}
		vals[134] = v134
		v137 := v135
		vals[137] = v137
		var v140 uint64
		if v102 != 0 {
			v140 = v139
		} else {
			v140 = v138
		}
		vals[140] = v140
		var v143 uint64
		if v109 != 0 {
			v143 = v142
		} else {
			v143 = v141
		}
		vals[143] = v143
		v146 := v144
		vals[146] = v146
		vals[147] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x4
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[26] = 0x1
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x4
		}
		vals[29] = v29
		vals[30] = 0x0
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x4
		}
		vals[34] = v34
		vals[35] = 0x0
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x4
		}
		vals[38] = v38
		vals[39] = 0x0
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x4
		}
		vals[43] = v43
		vals[44] = 0x0
		vals[50] = 0x4
		vals[51] = 0x4
		vals[52] = 0x4
		vals[53] = 0x4
		v54 := v29
		vals[54] = v54
		v55 := v54
		vals[55] = v55
		v56 := v55
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		v59 := v28
		vals[59] = v59
		vals[60] = 0x0
		v61 := v59
		vals[61] = v61
		vals[62] = 0x0
		v63 := v61
		vals[63] = v63
		var v77 uint64
		if v63 != 0 {
			v77 = v72
		} else {
			v77 = v76
		}
		vals[77] = v77
		vals[78] = 0x0
		v99 := v98
		vals[99] = v99
		vals[102] = 0x0
		v108 := v107
		vals[108] = v108
		vals[109] = 0x0
		v118 := v117
		vals[118] = v118
		v121 := v13
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		v128 := v63 & v69
		vals[128] = v128
		v130 := v63 & v129
		vals[130] = v130
		v131 := (v128 | v130)
		vals[131] = v131
		var v134 uint64
		if v131 != 0 {
			v134 = v133
		} else {
			v134 = v127
		}
		vals[134] = v134
		v137 := v135
		vals[137] = v137
		v140 := v138
		vals[140] = v140
		v143 := v141
		vals[143] = v143
		v146 := v144
		vals[146] = v146
		vals[147] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x5
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[26] = 0x0
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x5
		}
		vals[29] = v29
		vals[30] = 0x1
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x5
		}
		vals[34] = v34
		vals[35] = 0x0
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x5
		}
		vals[38] = v38
		vals[39] = 0x0
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x5
		}
		vals[43] = v43
		vals[44] = 0x0
		vals[50] = 0x5
		vals[51] = 0x5
		vals[52] = 0x5
		v53 := v34
		vals[53] = v53
		v54 := v53
		vals[54] = v54
		v55 := v54
		vals[55] = v55
		v56 := v55
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		vals[59] = 0x0
		vals[60] = 0x0
		vals[61] = 0x0
		vals[62] = 0x0
		vals[63] = 0x0
		v77 := v76
		vals[77] = v77
		v78 := v32
		vals[78] = v78
		var v99 uint64
		if v78 != 0 {
			v99 = v95
		} else {
			v99 = v98
		}
		vals[99] = v99
		vals[102] = 0x0
		v108 := v107
		vals[108] = v108
		vals[109] = 0x0
		v118 := v117
		vals[118] = v118
		v121 := v13
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[130] = 0x0
		vals[131] = 0x0
		v134 := v127
		vals[134] = v134
		var v137 uint64
		if v78 != 0 {
			v137 = v136
		} else {
			v137 = v135
		}
		vals[137] = v137
		v140 := v138
		vals[140] = v140
		v143 := v141
		vals[143] = v143
		v146 := v144
		vals[146] = v146
		vals[147] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x6
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[26] = 0x0
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x6
		}
		vals[29] = v29
		vals[30] = 0x0
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x6
		}
		vals[34] = v34
		vals[35] = 0x1
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x6
		}
		vals[38] = v38
		vals[39] = 0x0
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x6
		}
		vals[43] = v43
		vals[44] = 0x0
		vals[50] = 0x6
		vals[51] = 0x6
		v52 := v38
		vals[52] = v52
		v53 := v52
		vals[53] = v53
		v54 := v53
		vals[54] = v54
		v55 := v54
		vals[55] = v55
		v56 := v55
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		vals[59] = 0x0
		v60 := v37
		vals[60] = v60
		v61 := v60
		vals[61] = v61
		vals[62] = 0x0
		v63 := v61
		vals[63] = v63
		var v77 uint64
		if v63 != 0 {
			v77 = v72
		} else {
			v77 = v76
		}
		vals[77] = v77
		vals[78] = 0x0
		v99 := v98
		vals[99] = v99
		vals[102] = 0x0
		v108 := v107
		vals[108] = v108
		vals[109] = 0x0
		v118 := v117
		vals[118] = v118
		v121 := v13
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		v128 := v63 & v69
		vals[128] = v128
		v130 := v63 & v129
		vals[130] = v130
		v131 := (v128 | v130)
		vals[131] = v131
		var v134 uint64
		if v131 != 0 {
			v134 = v133
		} else {
			v134 = v127
		}
		vals[134] = v134
		v137 := v135
		vals[137] = v137
		v140 := v138
		vals[140] = v140
		v143 := v141
		vals[143] = v143
		v146 := v144
		vals[146] = v146
		vals[147] = 0x0
	case 0x7:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x7
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[26] = 0x0
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x7
		}
		vals[29] = v29
		vals[30] = 0x0
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x7
		}
		vals[34] = v34
		vals[35] = 0x0
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x7
		}
		vals[38] = v38
		vals[39] = 0x1
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x7
		}
		vals[43] = v43
		vals[44] = 0x0
		vals[50] = 0x7
		v51 := v43
		vals[51] = v51
		v52 := v51
		vals[52] = v52
		v53 := v52
		vals[53] = v53
		v54 := v53
		vals[54] = v54
		v55 := v54
		vals[55] = v55
		v56 := v55
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		vals[59] = 0x0
		vals[60] = 0x0
		vals[61] = 0x0
		vals[62] = 0x0
		vals[63] = 0x0
		v77 := v76
		vals[77] = v77
		vals[78] = 0x0
		v99 := v98
		vals[99] = v99
		vals[102] = 0x0
		v108 := v107
		vals[108] = v108
		vals[109] = 0x0
		v118 := v117
		vals[118] = v118
		v121 := v13
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[130] = 0x0
		vals[131] = 0x0
		v134 := v127
		vals[134] = v134
		v137 := v135
		vals[137] = v137
		v140 := v138
		vals[140] = v140
		v143 := v141
		vals[143] = v143
		v146 := v144
		vals[146] = v146
		vals[147] = 0x0
	case 0x8:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x8
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[26] = 0x0
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x8
		}
		vals[29] = v29
		vals[30] = 0x0
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x8
		}
		vals[34] = v34
		vals[35] = 0x0
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x8
		}
		vals[38] = v38
		vals[39] = 0x0
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x8
		}
		vals[43] = v43
		vals[44] = 0x1
		v50 := v49
		vals[50] = v50
		v51 := v50
		vals[51] = v51
		v52 := v51
		vals[52] = v52
		v53 := v52
		vals[53] = v53
		v54 := v53
		vals[54] = v54
		v55 := v54
		vals[55] = v55
		v56 := v55
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		vals[59] = 0x0
		vals[60] = 0x0
		vals[61] = 0x0
		vals[62] = 0x0
		vals[63] = 0x0
		v77 := v76
		vals[77] = v77
		vals[78] = 0x0
		v99 := v98
		vals[99] = v99
		vals[102] = 0x0
		v108 := v107
		vals[108] = v108
		vals[109] = 0x0
		v118 := v117
		vals[118] = v118
		v121 := v120
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[130] = 0x0
		vals[131] = 0x0
		v134 := v127
		vals[134] = v134
		v137 := v135
		vals[137] = v137
		v140 := v138
		vals[140] = v140
		v143 := v141
		vals[143] = v143
		v146 := v144
		vals[146] = v146
		vals[147] = 0x0
	case 0x9:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x9
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[26] = 0x0
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x9
		}
		vals[29] = v29
		vals[30] = 0x0
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x9
		}
		vals[34] = v34
		vals[35] = 0x0
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x9
		}
		vals[38] = v38
		vals[39] = 0x0
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x9
		}
		vals[43] = v43
		vals[44] = 0x0
		vals[50] = 0x9
		vals[51] = 0x9
		vals[52] = 0x9
		vals[53] = 0x9
		vals[54] = 0x9
		vals[55] = 0x9
		vals[56] = 0x9
		vals[57] = 0x9
		vals[58] = 0x9
		vals[59] = 0x0
		vals[60] = 0x0
		vals[61] = 0x0
		vals[62] = 0x0
		vals[63] = 0x0
		v77 := v76
		vals[77] = v77
		vals[78] = 0x0
		v99 := v98
		vals[99] = v99
		vals[102] = 0x0
		v108 := v107
		vals[108] = v108
		vals[109] = 0x0
		v118 := v117
		vals[118] = v118
		v121 := v13
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[130] = 0x0
		vals[131] = 0x0
		v134 := v127
		vals[134] = v134
		v137 := v135
		vals[137] = v137
		v140 := v138
		vals[140] = v140
		v143 := v141
		vals[143] = v143
		v146 := v144
		vals[146] = v146
		vals[147] = 0x1
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
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = v0
		}
		vals[11] = v11
		var v12 uint64
		if v0 == 0x3 {
			v12 = 1
		}
		vals[12] = v12
		var v26 uint64
		if v0 == 0x4 {
			v26 = 1
		}
		vals[26] = v26
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = v0
		}
		vals[29] = v29
		var v30 uint64
		if v0 == 0x5 {
			v30 = 1
		}
		vals[30] = v30
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = v0
		}
		vals[34] = v34
		var v35 uint64
		if v0 == 0x6 {
			v35 = 1
		}
		vals[35] = v35
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = v0
		}
		vals[38] = v38
		var v39 uint64
		if v0 == 0x7 {
			v39 = 1
		}
		vals[39] = v39
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = v0
		}
		vals[43] = v43
		var v44 uint64
		if v0 == 0x8 {
			v44 = 1
		}
		vals[44] = v44
		var v50 uint64
		if v44 != 0 {
			v50 = v49
		} else {
			v50 = v0
		}
		vals[50] = v50
		var v51 uint64
		if v39 != 0 {
			v51 = v43
		} else {
			v51 = v50
		}
		vals[51] = v51
		var v52 uint64
		if v35 != 0 {
			v52 = v38
		} else {
			v52 = v51
		}
		vals[52] = v52
		var v53 uint64
		if v30 != 0 {
			v53 = v34
		} else {
			v53 = v52
		}
		vals[53] = v53
		var v54 uint64
		if v26 != 0 {
			v54 = v29
		} else {
			v54 = v53
		}
		vals[54] = v54
		var v55 uint64
		if v12 != 0 {
			v55 = v25
		} else {
			v55 = v54
		}
		vals[55] = v55
		var v56 uint64
		if v6 != 0 {
			v56 = v11
		} else {
			v56 = v55
		}
		vals[56] = v56
		var v57 uint64
		if v4 != 0 {
			v57 = 0x2
		} else {
			v57 = v56
		}
		vals[57] = v57
		var v58 uint64
		if v2 != 0 {
			v58 = 0x1
		} else {
			v58 = v57
		}
		vals[58] = v58
		v59 := v26 & v28
		vals[59] = v59
		v60 := v35 & v37
		vals[60] = v60
		v61 := (v59 | v60)
		vals[61] = v61
		v62 := v12 & v18
		vals[62] = v62
		v63 := (v61 | v62)
		vals[63] = v63
		var v77 uint64
		if v63 != 0 {
			v77 = v72
		} else {
			v77 = v76
		}
		vals[77] = v77
		v78 := v30 & v32
		vals[78] = v78
		var v99 uint64
		if v78 != 0 {
			v99 = v95
		} else {
			v99 = v98
		}
		vals[99] = v99
		v102 := v12 & v101
		vals[102] = v102
		var v108 uint64
		if v102 != 0 {
			v108 = v104
		} else {
			v108 = v107
		}
		vals[108] = v108
		v109 := v12 & v21
		vals[109] = v109
		var v118 uint64
		if v109 != 0 {
			v118 = v114
		} else {
			v118 = v117
		}
		vals[118] = v118
		var v121 uint64
		if v44 != 0 {
			v121 = v120
		} else {
			v121 = v13
		}
		vals[121] = v121
		var v126 uint64
		if v4 != 0 {
			v126 = v122
		} else {
			v126 = v125
		}
		vals[126] = v126
		v128 := v63 & v69
		vals[128] = v128
		v130 := v63 & v129
		vals[130] = v130
		v131 := (v128 | v130)
		vals[131] = v131
		var v134 uint64
		if v131 != 0 {
			v134 = v133
		} else {
			v134 = v127
		}
		vals[134] = v134
		var v137 uint64
		if v78 != 0 {
			v137 = v136
		} else {
			v137 = v135
		}
		vals[137] = v137
		var v140 uint64
		if v102 != 0 {
			v140 = v139
		} else {
			v140 = v138
		}
		vals[140] = v140
		var v143 uint64
		if v109 != 0 {
			v143 = v142
		} else {
			v143 = v141
		}
		vals[143] = v143
		var v146 uint64
		if v4 != 0 {
			v146 = v145
		} else {
			v146 = v144
		}
		vals[146] = v146
		var v147 uint64
		if v0 == 0x9 {
			v147 = 1
		}
		vals[147] = v147
	}
	done := vals[147] != 0
	l0 := vals[58] & 0xf
	l1 := vals[77] & 0xff
	l2 := vals[99] & 0xff
	l3 := vals[108] & 0xff
	l4 := vals[118] & 0xff
	l5 := vals[121] & 0x1fff
	l6 := vals[126] & 0xff
	l7 := vals[134] & 0xffffff
	l8 := vals[137] & 0xffffff
	l9 := vals[140] & 0xffffff
	l10 := vals[143] & 0xffffff
	l11 := vals[146] & 0xffffff
	vals[0] = l0
	vals[40] = l1
	vals[36] = l2
	vals[31] = l3
	vals[27] = l4
	vals[13] = l5
	vals[7] = l6
	vals[127] = l7
	vals[135] = l8
	vals[138] = l9
	vals[141] = l10
	vals[144] = l11
	return cycles + 1, done
}

func step_h264_slice_all(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[187]
	m0 := mems[0]
	v0 := vals[0]
	v9 := vals[9]
	v46 := vals[46]
	v48 := vals[48]
	v67 := vals[67]
	v72 := vals[72]
	v73 := vals[73]
	v94 := vals[94]
	v97 := vals[97]
	v98 := vals[98]
	v106 := vals[106]
	v109 := vals[109]
	v110 := vals[110]
	v119 := vals[119]
	v122 := vals[122]
	v123 := vals[123]
	v127 := vals[127]
	v130 := vals[130]
	v135 := vals[135]
	v140 := vals[140]
	v145 := vals[145]
	v150 := vals[150]
	v155 := vals[155]
	v159 := vals[159]
	v164 := vals[164]
	v169 := vals[169]
	v173 := vals[173]
	v178 := vals[178]
	v183 := vals[183]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			v185 := (v183 + 0x1) & 0xffffff
			v45 := v9
			v65 := v48
			v66 := v65
			v71 := v67
			v93 := v73
			v96 := v94
			v105 := v98
			v108 := v106
			v118 := v110
			v121 := v119
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v145
			v154 := v150
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v178
			v186 := v185
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = 0x1
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		case 0x1:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v53 := (v10 >> 2)
			v55 := v53 & 0x3f
			v124 := (v55 >> 1)
			v125 := (v123 + v124) & 0xffffff
			v128 := (v127 + 0x1) & 0xffffff
			v181 := (v178 + 0x1) & 0xffffff
			v45 := v9
			v65 := v48
			v66 := v65
			v71 := v67
			v93 := v73
			v96 := v94
			v105 := v98
			v108 := v106
			v118 := v110
			v121 := v119
			v126 := v125
			v129 := v128
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v145
			v154 := v150
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v181
			v186 := v183
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = 0x2
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		case 0x2:
			v176 := (v173 + 0x1) & 0xffffff
			v45 := v9
			v65 := v48
			v66 := v65
			v71 := v67
			v93 := v73
			v96 := v94
			v105 := v98
			v108 := v106
			v118 := v110
			v121 := v119
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v145
			v154 := v150
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v176
			v182 := v178
			v186 := v183
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = 0x3
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		case 0x3:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v12 := v10 & 0x3
			var v14 uint64
			if v12 == 0x0 {
				v14 = 1
			}
			var v17 uint64
			if v12 == 0x1 {
				v17 = 1
			}
			var v20 uint64
			if v17 != 0 {
				v20 = 0x4
			} else {
				v20 = 0x5
			}
			var v21 uint64
			if v14 != 0 {
				v21 = 0x7
			} else {
				v21 = v20
			}
			v53 := (v10 >> 2)
			v55 := v53 & 0x3f
			var v57 uint64
			if v55 != 0x0 {
				v57 = 1
			}
			v58 := ^v57 & 0x1
			v61 := (v48 + 0x8) & 0xffffff
			v64 := (v48 + 0xc) & 0xffffff
			v70 := (v67 + 0x1) & 0xffffff
			v76 := (v10 >> 9)
			v78 := v76 & 0x7
			v80 := v78
			v82 := (v80 << 1) & 0xff
			v83 := (v80 + v82) & 0xff
			var v100 uint64
			if v12 == 0x2 {
				v100 = 1
			}
			v103 := (0x3 + v83) & 0xff
			v104 := (v98 + v103) & 0xffffff
			v107 := (v106 + 0x1) & 0xffffff
			v113 := v55
			v114 := (v55 >> 2)
			v115 := (v113 - v114) & 0xff
			v116 := (0xa + v115) & 0xff
			v117 := (v110 + v116) & 0xffffff
			v120 := (v119 + 0x1) & 0xffffff
			v162 := (v159 + 0x1) & 0xffffff
			v167 := (v164 + 0x1) & 0xffffff
			v171 := (v169 + 0x1) & 0xffffff
			v39 := v21
			v40 := v39
			v41 := v40
			v42 := v41
			v45 := v9
			v50 := v14
			v51 := v50
			v59 := v51 & v58
			v62 := v51 & v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			v93 := v73
			v96 := v94
			v101 := v100
			var v105 uint64
			if v101 != 0 {
				v105 = v104
			} else {
				v105 = v98
			}
			var v108 uint64
			if v101 != 0 {
				v108 = v107
			} else {
				v108 = v106
			}
			v111 := v17
			var v118 uint64
			if v111 != 0 {
				v118 = v117
			} else {
				v118 = v110
			}
			var v121 uint64
			if v111 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v140
			var v146 uint64
			if v42 == 0x7 {
				v146 = 1
			}
			v149 := v145
			v154 := v150
			v158 := v155
			var v160 uint64
			if v42 == 0x5 {
				v160 = 1
			}
			v161 := v160
			var v163 uint64
			if v161 != 0 {
				v163 = v162
			} else {
				v163 = v159
			}
			var v165 uint64
			if v42 == 0x4 {
				v165 = 1
			}
			v166 := v165
			var v168 uint64
			if v166 != 0 {
				v168 = v167
			} else {
				v168 = v164
			}
			v170 := v146
			var v172 uint64
			if v170 != 0 {
				v172 = v171
			} else {
				v172 = v169
			}
			v177 := v173
			v182 := v178
			v186 := v183
			n0 := v42
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = n0
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		case 0x4:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v53 := (v10 >> 2)
			v55 := v53 & 0x3f
			var v57 uint64
			if v55 != 0x0 {
				v57 = 1
			}
			v58 := ^v57 & 0x1
			v61 := (v48 + 0x8) & 0xffffff
			v64 := (v48 + 0xc) & 0xffffff
			v70 := (v67 + 0x1) & 0xffffff
			v157 := (v155 + 0x1) & 0xffffff
			v45 := v9
			v59 := v58
			v62 := v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			v93 := v73
			v96 := v94
			v105 := v98
			v108 := v106
			v118 := v110
			v121 := v119
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v145
			v154 := v150
			v158 := v157
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v178
			v186 := v183
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = 0x7
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		case 0x5:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v76 := (v10 >> 9)
			v78 := v76 & 0x7
			v80 := v78
			v82 := (v80 << 1) & 0xff
			v83 := (v80 + v82) & 0xff
			v84 := (0x2 + v83) & 0xff
			v86 := (v10 >> 8)
			v88 := v86 & 0x1
			var v90 uint64
			if v88 != 0 {
				v90 = 0x14
			} else {
				v90 = 0x0
			}
			v91 := (v84 + v90) & 0xff
			v92 := (v73 + v91) & 0xffffff
			v95 := (v94 + 0x1) & 0xffffff
			v153 := (v150 + 0x1) & 0xffffff
			v45 := v9
			v65 := v48
			v66 := v65
			v71 := v67
			v93 := v92
			v96 := v95
			v105 := v98
			v108 := v106
			v118 := v110
			v121 := v119
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v145
			v154 := v153
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v178
			v186 := v183
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = 0x6
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		case 0x6:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v53 := (v10 >> 2)
			v55 := v53 & 0x3f
			var v57 uint64
			if v55 != 0x0 {
				v57 = 1
			}
			v58 := ^v57 & 0x1
			v61 := (v48 + 0x8) & 0xffffff
			v64 := (v48 + 0xc) & 0xffffff
			v70 := (v67 + 0x1) & 0xffffff
			v148 := (v145 + 0x1) & 0xffffff
			v45 := v9
			v59 := v58
			v62 := v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			v93 := v73
			v96 := v94
			v105 := v98
			v108 := v106
			v118 := v110
			v121 := v119
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v148
			v154 := v150
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v178
			v186 := v183
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = 0x7
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		case 0x7:
			v143 := (v140 + 0x1) & 0xffffff
			v45 := v9
			v65 := v48
			v66 := v65
			v71 := v67
			v93 := v73
			v96 := v94
			v105 := v98
			v108 := v106
			v118 := v110
			v121 := v119
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v143
			v149 := v145
			v154 := v150
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v178
			v186 := v183
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = 0x8
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		case 0x8:
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0x1fff
			}
			var v31 uint64
			if v30 <= v9 {
				v31 = 1
			}
			var v33 uint64
			if v31 != 0 {
				v33 = 0x9
			} else {
				v33 = 0x1
			}
			v44 := (v9 + 0x1) & 0x1fff
			v133 := (v130 + 0x1) & 0xffffff
			v138 := (v135 + 0x1) & 0xffffff
			v34 := v33
			v35 := v34
			v36 := v35
			v37 := v36
			v38 := v37
			v39 := v38
			v40 := v39
			v41 := v40
			v42 := v41
			v45 := v44
			v65 := v48
			v66 := v65
			v71 := v67
			v93 := v73
			v96 := v94
			v105 := v98
			v108 := v106
			v118 := v110
			v121 := v119
			v126 := v123
			v129 := v127
			var v131 uint64
			if v42 == 0x1 {
				v131 = 1
			}
			v132 := v131
			var v134 uint64
			if v132 != 0 {
				v134 = v133
			} else {
				v134 = v130
			}
			var v136 uint64
			if v42 == 0x9 {
				v136 = 1
			}
			v137 := v136
			var v139 uint64
			if v137 != 0 {
				v139 = v138
			} else {
				v139 = v135
			}
			v144 := v140
			v149 := v145
			v154 := v150
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v178
			v186 := v183
			n0 := v42
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = n0
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		case 0x9:
			break loop
		default:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v12 := v10 & 0x3
			var v14 uint64
			if v12 == 0x0 {
				v14 = 1
			}
			var v17 uint64
			if v12 == 0x1 {
				v17 = 1
			}
			var v20 uint64
			if v17 != 0 {
				v20 = 0x4
			} else {
				v20 = 0x5
			}
			var v21 uint64
			if v14 != 0 {
				v21 = 0x7
			} else {
				v21 = v20
			}
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0x1fff
			}
			var v31 uint64
			if v30 <= v9 {
				v31 = 1
			}
			var v33 uint64
			if v31 != 0 {
				v33 = 0x9
			} else {
				v33 = 0x1
			}
			v44 := (v9 + 0x1) & 0x1fff
			v53 := (v10 >> 2)
			v55 := v53 & 0x3f
			var v57 uint64
			if v55 != 0x0 {
				v57 = 1
			}
			v58 := ^v57 & 0x1
			v61 := (v48 + 0x8) & 0xffffff
			v64 := (v48 + 0xc) & 0xffffff
			v70 := (v67 + 0x1) & 0xffffff
			v76 := (v10 >> 9)
			v78 := v76 & 0x7
			v80 := v78
			v82 := (v80 << 1) & 0xff
			v83 := (v80 + v82) & 0xff
			v84 := (0x2 + v83) & 0xff
			v86 := (v10 >> 8)
			v88 := v86 & 0x1
			var v90 uint64
			if v88 != 0 {
				v90 = 0x14
			} else {
				v90 = 0x0
			}
			v91 := (v84 + v90) & 0xff
			v92 := (v73 + v91) & 0xffffff
			v95 := (v94 + 0x1) & 0xffffff
			var v100 uint64
			if v12 == 0x2 {
				v100 = 1
			}
			v103 := (0x3 + v83) & 0xff
			v104 := (v98 + v103) & 0xffffff
			v107 := (v106 + 0x1) & 0xffffff
			v113 := v55
			v114 := (v55 >> 2)
			v115 := (v113 - v114) & 0xff
			v116 := (0xa + v115) & 0xff
			v117 := (v110 + v116) & 0xffffff
			v120 := (v119 + 0x1) & 0xffffff
			v124 := (v55 >> 1)
			v125 := (v123 + v124) & 0xffffff
			v128 := (v127 + 0x1) & 0xffffff
			v133 := (v130 + 0x1) & 0xffffff
			v138 := (v135 + 0x1) & 0xffffff
			v143 := (v140 + 0x1) & 0xffffff
			v148 := (v145 + 0x1) & 0xffffff
			v153 := (v150 + 0x1) & 0xffffff
			v157 := (v155 + 0x1) & 0xffffff
			v162 := (v159 + 0x1) & 0xffffff
			v167 := (v164 + 0x1) & 0xffffff
			v171 := (v169 + 0x1) & 0xffffff
			v176 := (v173 + 0x1) & 0xffffff
			v181 := (v178 + 0x1) & 0xffffff
			v185 := (v183 + 0x1) & 0xffffff
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
			var v22 uint64
			if v0 == 0x4 {
				v22 = 1
			}
			var v23 uint64
			if v0 == 0x5 {
				v23 = 1
			}
			var v25 uint64
			if v0 == 0x6 {
				v25 = 1
			}
			var v26 uint64
			if v0 == 0x7 {
				v26 = 1
			}
			var v28 uint64
			if v0 == 0x8 {
				v28 = 1
			}
			var v34 uint64
			if v28 != 0 {
				v34 = v33
			} else {
				v34 = v0
			}
			var v35 uint64
			if v26 != 0 {
				v35 = 0x8
			} else {
				v35 = v34
			}
			var v36 uint64
			if v25 != 0 {
				v36 = 0x7
			} else {
				v36 = v35
			}
			var v37 uint64
			if v23 != 0 {
				v37 = 0x6
			} else {
				v37 = v36
			}
			var v38 uint64
			if v22 != 0 {
				v38 = 0x7
			} else {
				v38 = v37
			}
			var v39 uint64
			if v8 != 0 {
				v39 = v21
			} else {
				v39 = v38
			}
			var v40 uint64
			if v6 != 0 {
				v40 = 0x3
			} else {
				v40 = v39
			}
			var v41 uint64
			if v4 != 0 {
				v41 = 0x2
			} else {
				v41 = v40
			}
			var v42 uint64
			if v2 != 0 {
				v42 = 0x1
			} else {
				v42 = v41
			}
			var v45 uint64
			if v28 != 0 {
				v45 = v44
			} else {
				v45 = v9
			}
			v49 := (v22 | v25)
			v50 := v8 & v14
			v51 := (v49 | v50)
			v59 := v51 & v58
			v62 := v51 & v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			var v93 uint64
			if v23 != 0 {
				v93 = v92
			} else {
				v93 = v73
			}
			var v96 uint64
			if v23 != 0 {
				v96 = v95
			} else {
				v96 = v94
			}
			v101 := v8 & v100
			var v105 uint64
			if v101 != 0 {
				v105 = v104
			} else {
				v105 = v98
			}
			var v108 uint64
			if v101 != 0 {
				v108 = v107
			} else {
				v108 = v106
			}
			v111 := v8 & v17
			var v118 uint64
			if v111 != 0 {
				v118 = v117
			} else {
				v118 = v110
			}
			var v121 uint64
			if v111 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			var v126 uint64
			if v4 != 0 {
				v126 = v125
			} else {
				v126 = v123
			}
			var v129 uint64
			if v4 != 0 {
				v129 = v128
			} else {
				v129 = v127
			}
			var v131 uint64
			if v42 == 0x1 {
				v131 = 1
			}
			v132 := v28 & v131
			var v134 uint64
			if v132 != 0 {
				v134 = v133
			} else {
				v134 = v130
			}
			var v136 uint64
			if v42 == 0x9 {
				v136 = 1
			}
			v137 := v28 & v136
			var v139 uint64
			if v137 != 0 {
				v139 = v138
			} else {
				v139 = v135
			}
			var v141 uint64
			if v42 == 0x8 {
				v141 = 1
			}
			v142 := v26 & v141
			var v144 uint64
			if v142 != 0 {
				v144 = v143
			} else {
				v144 = v140
			}
			var v146 uint64
			if v42 == 0x7 {
				v146 = 1
			}
			v147 := v25 & v146
			var v149 uint64
			if v147 != 0 {
				v149 = v148
			} else {
				v149 = v145
			}
			var v151 uint64
			if v42 == 0x6 {
				v151 = 1
			}
			v152 := v23 & v151
			var v154 uint64
			if v152 != 0 {
				v154 = v153
			} else {
				v154 = v150
			}
			v156 := v22 & v146
			var v158 uint64
			if v156 != 0 {
				v158 = v157
			} else {
				v158 = v155
			}
			var v160 uint64
			if v42 == 0x5 {
				v160 = 1
			}
			v161 := v8 & v160
			var v163 uint64
			if v161 != 0 {
				v163 = v162
			} else {
				v163 = v159
			}
			var v165 uint64
			if v42 == 0x4 {
				v165 = 1
			}
			v166 := v8 & v165
			var v168 uint64
			if v166 != 0 {
				v168 = v167
			} else {
				v168 = v164
			}
			v170 := v8 & v146
			var v172 uint64
			if v170 != 0 {
				v172 = v171
			} else {
				v172 = v169
			}
			var v174 uint64
			if v42 == 0x3 {
				v174 = 1
			}
			v175 := v6 & v174
			var v177 uint64
			if v175 != 0 {
				v177 = v176
			} else {
				v177 = v173
			}
			var v179 uint64
			if v42 == 0x2 {
				v179 = 1
			}
			v180 := v4 & v179
			var v182 uint64
			if v180 != 0 {
				v182 = v181
			} else {
				v182 = v178
			}
			v184 := v2 & v131
			var v186 uint64
			if v184 != 0 {
				v186 = v185
			} else {
				v186 = v183
			}
			var v187 uint64
			if v0 == 0x9 {
				v187 = 1
			}
			if v187 != 0 {
				break loop
			}
			n0 := v42
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = n0
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		}
	}
	vals[0] = v0
	vals[9] = v9
	vals[46] = v46
	vals[48] = v48
	vals[67] = v67
	vals[72] = v72
	vals[73] = v73
	vals[94] = v94
	vals[97] = v97
	vals[98] = v98
	vals[106] = v106
	vals[109] = v109
	vals[110] = v110
	vals[119] = v119
	vals[122] = v122
	vals[123] = v123
	vals[127] = v127
	vals[130] = v130
	vals[135] = v135
	vals[140] = v140
	vals[145] = v145
	vals[150] = v150
	vals[155] = v155
	vals[159] = v159
	vals[164] = v164
	vals[169] = v169
	vals[173] = v173
	vals[178] = v178
	vals[183] = v183
	var v10 uint64
	if addr := uint64(v9); addr < uint64(len(m0)) {
		v10 = m0[addr] & 0xfffffff
	}
	vals[10] = v10
	v12 := v10 & 0x3
	vals[12] = v12
	var v14 uint64
	if v12 == 0x0 {
		v14 = 1
	}
	vals[14] = v14
	var v17 uint64
	if v12 == 0x1 {
		v17 = 1
	}
	vals[17] = v17
	var v20 uint64
	if v17 != 0 {
		v20 = 0x4
	} else {
		v20 = 0x5
	}
	vals[20] = v20
	var v21 uint64
	if v14 != 0 {
		v21 = 0x7
	} else {
		v21 = v20
	}
	vals[21] = v21
	var v30 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v30 = m0[addr] & 0x1fff
	}
	vals[30] = v30
	var v31 uint64
	if v30 <= v9 {
		v31 = 1
	}
	vals[31] = v31
	var v33 uint64
	if v31 != 0 {
		v33 = 0x9
	} else {
		v33 = 0x1
	}
	vals[33] = v33
	v44 := (v9 + 0x1) & 0x1fff
	vals[44] = v44
	v53 := (v10 >> 2)
	vals[53] = v53
	v55 := v53 & 0x3f
	vals[55] = v55
	var v57 uint64
	if v55 != 0x0 {
		v57 = 1
	}
	vals[57] = v57
	v58 := ^v57 & 0x1
	vals[58] = v58
	v61 := (v48 + 0x8) & 0xffffff
	vals[61] = v61
	v64 := (v48 + 0xc) & 0xffffff
	vals[64] = v64
	v70 := (v67 + 0x1) & 0xffffff
	vals[70] = v70
	v76 := (v10 >> 9)
	vals[76] = v76
	v78 := v76 & 0x7
	vals[78] = v78
	v80 := v78
	vals[80] = v80
	v82 := (v80 << 1) & 0xff
	vals[82] = v82
	v83 := (v80 + v82) & 0xff
	vals[83] = v83
	v84 := (0x2 + v83) & 0xff
	vals[84] = v84
	v86 := (v10 >> 8)
	vals[86] = v86
	v88 := v86 & 0x1
	vals[88] = v88
	var v90 uint64
	if v88 != 0 {
		v90 = 0x14
	} else {
		v90 = 0x0
	}
	vals[90] = v90
	v91 := (v84 + v90) & 0xff
	vals[91] = v91
	v92 := (v73 + v91) & 0xffffff
	vals[92] = v92
	v95 := (v94 + 0x1) & 0xffffff
	vals[95] = v95
	var v100 uint64
	if v12 == 0x2 {
		v100 = 1
	}
	vals[100] = v100
	v103 := (0x3 + v83) & 0xff
	vals[103] = v103
	v104 := (v98 + v103) & 0xffffff
	vals[104] = v104
	v107 := (v106 + 0x1) & 0xffffff
	vals[107] = v107
	v113 := v55
	vals[113] = v113
	v114 := (v55 >> 2)
	vals[114] = v114
	v115 := (v113 - v114) & 0xff
	vals[115] = v115
	v116 := (0xa + v115) & 0xff
	vals[116] = v116
	v117 := (v110 + v116) & 0xffffff
	vals[117] = v117
	v120 := (v119 + 0x1) & 0xffffff
	vals[120] = v120
	v124 := (v55 >> 1)
	vals[124] = v124
	v125 := (v123 + v124) & 0xffffff
	vals[125] = v125
	v128 := (v127 + 0x1) & 0xffffff
	vals[128] = v128
	v133 := (v130 + 0x1) & 0xffffff
	vals[133] = v133
	v138 := (v135 + 0x1) & 0xffffff
	vals[138] = v138
	v143 := (v140 + 0x1) & 0xffffff
	vals[143] = v143
	v148 := (v145 + 0x1) & 0xffffff
	vals[148] = v148
	v153 := (v150 + 0x1) & 0xffffff
	vals[153] = v153
	v157 := (v155 + 0x1) & 0xffffff
	vals[157] = v157
	v162 := (v159 + 0x1) & 0xffffff
	vals[162] = v162
	v167 := (v164 + 0x1) & 0xffffff
	vals[167] = v167
	v171 := (v169 + 0x1) & 0xffffff
	vals[171] = v171
	v176 := (v173 + 0x1) & 0xffffff
	vals[176] = v176
	v181 := (v178 + 0x1) & 0xffffff
	vals[181] = v181
	v185 := (v183 + 0x1) & 0xffffff
	vals[185] = v185
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x0
		vals[35] = 0x0
		vals[36] = 0x0
		vals[37] = 0x0
		vals[38] = 0x0
		vals[39] = 0x0
		vals[40] = 0x0
		vals[41] = 0x0
		vals[42] = 0x1
		v45 := v9
		vals[45] = v45
		vals[49] = 0x0
		vals[50] = 0x0
		vals[51] = 0x0
		vals[59] = 0x0
		vals[62] = 0x0
		v65 := v48
		vals[65] = v65
		v66 := v65
		vals[66] = v66
		vals[68] = 0x0
		v71 := v67
		vals[71] = v71
		v93 := v73
		vals[93] = v93
		v96 := v94
		vals[96] = v96
		vals[101] = 0x0
		v105 := v98
		vals[105] = v105
		v108 := v106
		vals[108] = v108
		vals[111] = 0x0
		v118 := v110
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		vals[131] = 0x1
		vals[132] = 0x0
		v134 := v130
		vals[134] = v134
		vals[136] = 0x0
		vals[137] = 0x0
		v139 := v135
		vals[139] = v139
		vals[141] = 0x0
		vals[142] = 0x0
		v144 := v140
		vals[144] = v144
		vals[146] = 0x0
		vals[147] = 0x0
		v149 := v145
		vals[149] = v149
		vals[151] = 0x0
		vals[152] = 0x0
		v154 := v150
		vals[154] = v154
		vals[156] = 0x0
		v158 := v155
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		vals[174] = 0x0
		vals[175] = 0x0
		v177 := v173
		vals[177] = v177
		vals[179] = 0x0
		vals[180] = 0x0
		v182 := v178
		vals[182] = v182
		vals[184] = 0x1
		v186 := v185
		vals[186] = v186
		vals[187] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x1
		vals[35] = 0x1
		vals[36] = 0x1
		vals[37] = 0x1
		vals[38] = 0x1
		vals[39] = 0x1
		vals[40] = 0x1
		vals[41] = 0x2
		vals[42] = 0x2
		v45 := v9
		vals[45] = v45
		vals[49] = 0x0
		vals[50] = 0x0
		vals[51] = 0x0
		vals[59] = 0x0
		vals[62] = 0x0
		v65 := v48
		vals[65] = v65
		v66 := v65
		vals[66] = v66
		vals[68] = 0x0
		v71 := v67
		vals[71] = v71
		v93 := v73
		vals[93] = v93
		v96 := v94
		vals[96] = v96
		vals[101] = 0x0
		v105 := v98
		vals[105] = v105
		v108 := v106
		vals[108] = v108
		vals[111] = 0x0
		v118 := v110
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		v129 := v128
		vals[129] = v129
		vals[131] = 0x0
		vals[132] = 0x0
		v134 := v130
		vals[134] = v134
		vals[136] = 0x0
		vals[137] = 0x0
		v139 := v135
		vals[139] = v139
		vals[141] = 0x0
		vals[142] = 0x0
		v144 := v140
		vals[144] = v144
		vals[146] = 0x0
		vals[147] = 0x0
		v149 := v145
		vals[149] = v149
		vals[151] = 0x0
		vals[152] = 0x0
		v154 := v150
		vals[154] = v154
		vals[156] = 0x0
		v158 := v155
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		vals[174] = 0x0
		vals[175] = 0x0
		v177 := v173
		vals[177] = v177
		vals[179] = 0x1
		vals[180] = 0x1
		v182 := v181
		vals[182] = v182
		vals[184] = 0x0
		v186 := v183
		vals[186] = v186
		vals[187] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x2
		vals[35] = 0x2
		vals[36] = 0x2
		vals[37] = 0x2
		vals[38] = 0x2
		vals[39] = 0x2
		vals[40] = 0x3
		vals[41] = 0x3
		vals[42] = 0x3
		v45 := v9
		vals[45] = v45
		vals[49] = 0x0
		vals[50] = 0x0
		vals[51] = 0x0
		vals[59] = 0x0
		vals[62] = 0x0
		v65 := v48
		vals[65] = v65
		v66 := v65
		vals[66] = v66
		vals[68] = 0x0
		v71 := v67
		vals[71] = v71
		v93 := v73
		vals[93] = v93
		v96 := v94
		vals[96] = v96
		vals[101] = 0x0
		v105 := v98
		vals[105] = v105
		v108 := v106
		vals[108] = v108
		vals[111] = 0x0
		v118 := v110
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		vals[131] = 0x0
		vals[132] = 0x0
		v134 := v130
		vals[134] = v134
		vals[136] = 0x0
		vals[137] = 0x0
		v139 := v135
		vals[139] = v139
		vals[141] = 0x0
		vals[142] = 0x0
		v144 := v140
		vals[144] = v144
		vals[146] = 0x0
		vals[147] = 0x0
		v149 := v145
		vals[149] = v149
		vals[151] = 0x0
		vals[152] = 0x0
		v154 := v150
		vals[154] = v154
		vals[156] = 0x0
		v158 := v155
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		vals[174] = 0x1
		vals[175] = 0x1
		v177 := v176
		vals[177] = v177
		vals[179] = 0x0
		vals[180] = 0x0
		v182 := v178
		vals[182] = v182
		vals[184] = 0x0
		v186 := v183
		vals[186] = v186
		vals[187] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x3
		vals[35] = 0x3
		vals[36] = 0x3
		vals[37] = 0x3
		vals[38] = 0x3
		v39 := v21
		vals[39] = v39
		v40 := v39
		vals[40] = v40
		v41 := v40
		vals[41] = v41
		v42 := v41
		vals[42] = v42
		v45 := v9
		vals[45] = v45
		vals[49] = 0x0
		v50 := v14
		vals[50] = v50
		v51 := v50
		vals[51] = v51
		v59 := v51 & v58
		vals[59] = v59
		v62 := v51 & v57
		vals[62] = v62
		var v65 uint64
		if v62 != 0 {
			v65 = v64
		} else {
			v65 = v48
		}
		vals[65] = v65
		var v66 uint64
		if v59 != 0 {
			v66 = v61
		} else {
			v66 = v65
		}
		vals[66] = v66
		v68 := (v62 | v59)
		vals[68] = v68
		var v71 uint64
		if v68 != 0 {
			v71 = v70
		} else {
			v71 = v67
		}
		vals[71] = v71
		v93 := v73
		vals[93] = v93
		v96 := v94
		vals[96] = v96
		v101 := v100
		vals[101] = v101
		var v105 uint64
		if v101 != 0 {
			v105 = v104
		} else {
			v105 = v98
		}
		vals[105] = v105
		var v108 uint64
		if v101 != 0 {
			v108 = v107
		} else {
			v108 = v106
		}
		vals[108] = v108
		v111 := v17
		vals[111] = v111
		var v118 uint64
		if v111 != 0 {
			v118 = v117
		} else {
			v118 = v110
		}
		vals[118] = v118
		var v121 uint64
		if v111 != 0 {
			v121 = v120
		} else {
			v121 = v119
		}
		vals[121] = v121
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		var v131 uint64
		if v42 == 0x1 {
			v131 = 1
		}
		vals[131] = v131
		vals[132] = 0x0
		v134 := v130
		vals[134] = v134
		var v136 uint64
		if v42 == 0x9 {
			v136 = 1
		}
		vals[136] = v136
		vals[137] = 0x0
		v139 := v135
		vals[139] = v139
		var v141 uint64
		if v42 == 0x8 {
			v141 = 1
		}
		vals[141] = v141
		vals[142] = 0x0
		v144 := v140
		vals[144] = v144
		var v146 uint64
		if v42 == 0x7 {
			v146 = 1
		}
		vals[146] = v146
		vals[147] = 0x0
		v149 := v145
		vals[149] = v149
		var v151 uint64
		if v42 == 0x6 {
			v151 = 1
		}
		vals[151] = v151
		vals[152] = 0x0
		v154 := v150
		vals[154] = v154
		vals[156] = 0x0
		v158 := v155
		vals[158] = v158
		var v160 uint64
		if v42 == 0x5 {
			v160 = 1
		}
		vals[160] = v160
		v161 := v160
		vals[161] = v161
		var v163 uint64
		if v161 != 0 {
			v163 = v162
		} else {
			v163 = v159
		}
		vals[163] = v163
		var v165 uint64
		if v42 == 0x4 {
			v165 = 1
		}
		vals[165] = v165
		v166 := v165
		vals[166] = v166
		var v168 uint64
		if v166 != 0 {
			v168 = v167
		} else {
			v168 = v164
		}
		vals[168] = v168
		v170 := v146
		vals[170] = v170
		var v172 uint64
		if v170 != 0 {
			v172 = v171
		} else {
			v172 = v169
		}
		vals[172] = v172
		var v174 uint64
		if v42 == 0x3 {
			v174 = 1
		}
		vals[174] = v174
		vals[175] = 0x0
		v177 := v173
		vals[177] = v177
		var v179 uint64
		if v42 == 0x2 {
			v179 = 1
		}
		vals[179] = v179
		vals[180] = 0x0
		v182 := v178
		vals[182] = v182
		vals[184] = 0x0
		v186 := v183
		vals[186] = v186
		vals[187] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x1
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x4
		vals[35] = 0x4
		vals[36] = 0x4
		vals[37] = 0x4
		vals[38] = 0x7
		vals[39] = 0x7
		vals[40] = 0x7
		vals[41] = 0x7
		vals[42] = 0x7
		v45 := v9
		vals[45] = v45
		vals[49] = 0x1
		vals[50] = 0x0
		vals[51] = 0x1
		v59 := v58
		vals[59] = v59
		v62 := v57
		vals[62] = v62
		var v65 uint64
		if v62 != 0 {
			v65 = v64
		} else {
			v65 = v48
		}
		vals[65] = v65
		var v66 uint64
		if v59 != 0 {
			v66 = v61
		} else {
			v66 = v65
		}
		vals[66] = v66
		v68 := (v62 | v59)
		vals[68] = v68
		var v71 uint64
		if v68 != 0 {
			v71 = v70
		} else {
			v71 = v67
		}
		vals[71] = v71
		v93 := v73
		vals[93] = v93
		v96 := v94
		vals[96] = v96
		vals[101] = 0x0
		v105 := v98
		vals[105] = v105
		v108 := v106
		vals[108] = v108
		vals[111] = 0x0
		v118 := v110
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		vals[131] = 0x0
		vals[132] = 0x0
		v134 := v130
		vals[134] = v134
		vals[136] = 0x0
		vals[137] = 0x0
		v139 := v135
		vals[139] = v139
		vals[141] = 0x0
		vals[142] = 0x0
		v144 := v140
		vals[144] = v144
		vals[146] = 0x1
		vals[147] = 0x0
		v149 := v145
		vals[149] = v149
		vals[151] = 0x0
		vals[152] = 0x0
		v154 := v150
		vals[154] = v154
		vals[156] = 0x1
		v158 := v157
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		vals[174] = 0x0
		vals[175] = 0x0
		v177 := v173
		vals[177] = v177
		vals[179] = 0x0
		vals[180] = 0x0
		v182 := v178
		vals[182] = v182
		vals[184] = 0x0
		v186 := v183
		vals[186] = v186
		vals[187] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x1
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x5
		vals[35] = 0x5
		vals[36] = 0x5
		vals[37] = 0x6
		vals[38] = 0x6
		vals[39] = 0x6
		vals[40] = 0x6
		vals[41] = 0x6
		vals[42] = 0x6
		v45 := v9
		vals[45] = v45
		vals[49] = 0x0
		vals[50] = 0x0
		vals[51] = 0x0
		vals[59] = 0x0
		vals[62] = 0x0
		v65 := v48
		vals[65] = v65
		v66 := v65
		vals[66] = v66
		vals[68] = 0x0
		v71 := v67
		vals[71] = v71
		v93 := v92
		vals[93] = v93
		v96 := v95
		vals[96] = v96
		vals[101] = 0x0
		v105 := v98
		vals[105] = v105
		v108 := v106
		vals[108] = v108
		vals[111] = 0x0
		v118 := v110
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		vals[131] = 0x0
		vals[132] = 0x0
		v134 := v130
		vals[134] = v134
		vals[136] = 0x0
		vals[137] = 0x0
		v139 := v135
		vals[139] = v139
		vals[141] = 0x0
		vals[142] = 0x0
		v144 := v140
		vals[144] = v144
		vals[146] = 0x0
		vals[147] = 0x0
		v149 := v145
		vals[149] = v149
		vals[151] = 0x1
		vals[152] = 0x1
		v154 := v153
		vals[154] = v154
		vals[156] = 0x0
		v158 := v155
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		vals[174] = 0x0
		vals[175] = 0x0
		v177 := v173
		vals[177] = v177
		vals[179] = 0x0
		vals[180] = 0x0
		v182 := v178
		vals[182] = v182
		vals[184] = 0x0
		v186 := v183
		vals[186] = v186
		vals[187] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x1
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x6
		vals[35] = 0x6
		vals[36] = 0x7
		vals[37] = 0x7
		vals[38] = 0x7
		vals[39] = 0x7
		vals[40] = 0x7
		vals[41] = 0x7
		vals[42] = 0x7
		v45 := v9
		vals[45] = v45
		vals[49] = 0x1
		vals[50] = 0x0
		vals[51] = 0x1
		v59 := v58
		vals[59] = v59
		v62 := v57
		vals[62] = v62
		var v65 uint64
		if v62 != 0 {
			v65 = v64
		} else {
			v65 = v48
		}
		vals[65] = v65
		var v66 uint64
		if v59 != 0 {
			v66 = v61
		} else {
			v66 = v65
		}
		vals[66] = v66
		v68 := (v62 | v59)
		vals[68] = v68
		var v71 uint64
		if v68 != 0 {
			v71 = v70
		} else {
			v71 = v67
		}
		vals[71] = v71
		v93 := v73
		vals[93] = v93
		v96 := v94
		vals[96] = v96
		vals[101] = 0x0
		v105 := v98
		vals[105] = v105
		v108 := v106
		vals[108] = v108
		vals[111] = 0x0
		v118 := v110
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		vals[131] = 0x0
		vals[132] = 0x0
		v134 := v130
		vals[134] = v134
		vals[136] = 0x0
		vals[137] = 0x0
		v139 := v135
		vals[139] = v139
		vals[141] = 0x0
		vals[142] = 0x0
		v144 := v140
		vals[144] = v144
		vals[146] = 0x1
		vals[147] = 0x1
		v149 := v148
		vals[149] = v149
		vals[151] = 0x0
		vals[152] = 0x0
		v154 := v150
		vals[154] = v154
		vals[156] = 0x0
		v158 := v155
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		vals[174] = 0x0
		vals[175] = 0x0
		v177 := v173
		vals[177] = v177
		vals[179] = 0x0
		vals[180] = 0x0
		v182 := v178
		vals[182] = v182
		vals[184] = 0x0
		v186 := v183
		vals[186] = v186
		vals[187] = 0x0
	case 0x7:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x1
		vals[28] = 0x0
		vals[34] = 0x7
		vals[35] = 0x8
		vals[36] = 0x8
		vals[37] = 0x8
		vals[38] = 0x8
		vals[39] = 0x8
		vals[40] = 0x8
		vals[41] = 0x8
		vals[42] = 0x8
		v45 := v9
		vals[45] = v45
		vals[49] = 0x0
		vals[50] = 0x0
		vals[51] = 0x0
		vals[59] = 0x0
		vals[62] = 0x0
		v65 := v48
		vals[65] = v65
		v66 := v65
		vals[66] = v66
		vals[68] = 0x0
		v71 := v67
		vals[71] = v71
		v93 := v73
		vals[93] = v93
		v96 := v94
		vals[96] = v96
		vals[101] = 0x0
		v105 := v98
		vals[105] = v105
		v108 := v106
		vals[108] = v108
		vals[111] = 0x0
		v118 := v110
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		vals[131] = 0x0
		vals[132] = 0x0
		v134 := v130
		vals[134] = v134
		vals[136] = 0x0
		vals[137] = 0x0
		v139 := v135
		vals[139] = v139
		vals[141] = 0x1
		vals[142] = 0x1
		v144 := v143
		vals[144] = v144
		vals[146] = 0x0
		vals[147] = 0x0
		v149 := v145
		vals[149] = v149
		vals[151] = 0x0
		vals[152] = 0x0
		v154 := v150
		vals[154] = v154
		vals[156] = 0x0
		v158 := v155
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		vals[174] = 0x0
		vals[175] = 0x0
		v177 := v173
		vals[177] = v177
		vals[179] = 0x0
		vals[180] = 0x0
		v182 := v178
		vals[182] = v182
		vals[184] = 0x0
		v186 := v183
		vals[186] = v186
		vals[187] = 0x0
	case 0x8:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x1
		v34 := v33
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v37 := v36
		vals[37] = v37
		v38 := v37
		vals[38] = v38
		v39 := v38
		vals[39] = v39
		v40 := v39
		vals[40] = v40
		v41 := v40
		vals[41] = v41
		v42 := v41
		vals[42] = v42
		v45 := v44
		vals[45] = v45
		vals[49] = 0x0
		vals[50] = 0x0
		vals[51] = 0x0
		vals[59] = 0x0
		vals[62] = 0x0
		v65 := v48
		vals[65] = v65
		v66 := v65
		vals[66] = v66
		vals[68] = 0x0
		v71 := v67
		vals[71] = v71
		v93 := v73
		vals[93] = v93
		v96 := v94
		vals[96] = v96
		vals[101] = 0x0
		v105 := v98
		vals[105] = v105
		v108 := v106
		vals[108] = v108
		vals[111] = 0x0
		v118 := v110
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		var v131 uint64
		if v42 == 0x1 {
			v131 = 1
		}
		vals[131] = v131
		v132 := v131
		vals[132] = v132
		var v134 uint64
		if v132 != 0 {
			v134 = v133
		} else {
			v134 = v130
		}
		vals[134] = v134
		var v136 uint64
		if v42 == 0x9 {
			v136 = 1
		}
		vals[136] = v136
		v137 := v136
		vals[137] = v137
		var v139 uint64
		if v137 != 0 {
			v139 = v138
		} else {
			v139 = v135
		}
		vals[139] = v139
		var v141 uint64
		if v42 == 0x8 {
			v141 = 1
		}
		vals[141] = v141
		vals[142] = 0x0
		v144 := v140
		vals[144] = v144
		var v146 uint64
		if v42 == 0x7 {
			v146 = 1
		}
		vals[146] = v146
		vals[147] = 0x0
		v149 := v145
		vals[149] = v149
		var v151 uint64
		if v42 == 0x6 {
			v151 = 1
		}
		vals[151] = v151
		vals[152] = 0x0
		v154 := v150
		vals[154] = v154
		vals[156] = 0x0
		v158 := v155
		vals[158] = v158
		var v160 uint64
		if v42 == 0x5 {
			v160 = 1
		}
		vals[160] = v160
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		var v165 uint64
		if v42 == 0x4 {
			v165 = 1
		}
		vals[165] = v165
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		var v174 uint64
		if v42 == 0x3 {
			v174 = 1
		}
		vals[174] = v174
		vals[175] = 0x0
		v177 := v173
		vals[177] = v177
		var v179 uint64
		if v42 == 0x2 {
			v179 = 1
		}
		vals[179] = v179
		vals[180] = 0x0
		v182 := v178
		vals[182] = v182
		vals[184] = 0x0
		v186 := v183
		vals[186] = v186
		vals[187] = 0x0
	case 0x9:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x9
		vals[35] = 0x9
		vals[36] = 0x9
		vals[37] = 0x9
		vals[38] = 0x9
		vals[39] = 0x9
		vals[40] = 0x9
		vals[41] = 0x9
		vals[42] = 0x9
		v45 := v9
		vals[45] = v45
		vals[49] = 0x0
		vals[50] = 0x0
		vals[51] = 0x0
		vals[59] = 0x0
		vals[62] = 0x0
		v65 := v48
		vals[65] = v65
		v66 := v65
		vals[66] = v66
		vals[68] = 0x0
		v71 := v67
		vals[71] = v71
		v93 := v73
		vals[93] = v93
		v96 := v94
		vals[96] = v96
		vals[101] = 0x0
		v105 := v98
		vals[105] = v105
		v108 := v106
		vals[108] = v108
		vals[111] = 0x0
		v118 := v110
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		vals[131] = 0x0
		vals[132] = 0x0
		v134 := v130
		vals[134] = v134
		vals[136] = 0x1
		vals[137] = 0x0
		v139 := v135
		vals[139] = v139
		vals[141] = 0x0
		vals[142] = 0x0
		v144 := v140
		vals[144] = v144
		vals[146] = 0x0
		vals[147] = 0x0
		v149 := v145
		vals[149] = v149
		vals[151] = 0x0
		vals[152] = 0x0
		v154 := v150
		vals[154] = v154
		vals[156] = 0x0
		v158 := v155
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		vals[174] = 0x0
		vals[175] = 0x0
		v177 := v173
		vals[177] = v177
		vals[179] = 0x0
		vals[180] = 0x0
		v182 := v178
		vals[182] = v182
		vals[184] = 0x0
		v186 := v183
		vals[186] = v186
		vals[187] = 0x1
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
		var v22 uint64
		if v0 == 0x4 {
			v22 = 1
		}
		vals[22] = v22
		var v23 uint64
		if v0 == 0x5 {
			v23 = 1
		}
		vals[23] = v23
		var v25 uint64
		if v0 == 0x6 {
			v25 = 1
		}
		vals[25] = v25
		var v26 uint64
		if v0 == 0x7 {
			v26 = 1
		}
		vals[26] = v26
		var v28 uint64
		if v0 == 0x8 {
			v28 = 1
		}
		vals[28] = v28
		var v34 uint64
		if v28 != 0 {
			v34 = v33
		} else {
			v34 = v0
		}
		vals[34] = v34
		var v35 uint64
		if v26 != 0 {
			v35 = 0x8
		} else {
			v35 = v34
		}
		vals[35] = v35
		var v36 uint64
		if v25 != 0 {
			v36 = 0x7
		} else {
			v36 = v35
		}
		vals[36] = v36
		var v37 uint64
		if v23 != 0 {
			v37 = 0x6
		} else {
			v37 = v36
		}
		vals[37] = v37
		var v38 uint64
		if v22 != 0 {
			v38 = 0x7
		} else {
			v38 = v37
		}
		vals[38] = v38
		var v39 uint64
		if v8 != 0 {
			v39 = v21
		} else {
			v39 = v38
		}
		vals[39] = v39
		var v40 uint64
		if v6 != 0 {
			v40 = 0x3
		} else {
			v40 = v39
		}
		vals[40] = v40
		var v41 uint64
		if v4 != 0 {
			v41 = 0x2
		} else {
			v41 = v40
		}
		vals[41] = v41
		var v42 uint64
		if v2 != 0 {
			v42 = 0x1
		} else {
			v42 = v41
		}
		vals[42] = v42
		var v45 uint64
		if v28 != 0 {
			v45 = v44
		} else {
			v45 = v9
		}
		vals[45] = v45
		v49 := (v22 | v25)
		vals[49] = v49
		v50 := v8 & v14
		vals[50] = v50
		v51 := (v49 | v50)
		vals[51] = v51
		v59 := v51 & v58
		vals[59] = v59
		v62 := v51 & v57
		vals[62] = v62
		var v65 uint64
		if v62 != 0 {
			v65 = v64
		} else {
			v65 = v48
		}
		vals[65] = v65
		var v66 uint64
		if v59 != 0 {
			v66 = v61
		} else {
			v66 = v65
		}
		vals[66] = v66
		v68 := (v62 | v59)
		vals[68] = v68
		var v71 uint64
		if v68 != 0 {
			v71 = v70
		} else {
			v71 = v67
		}
		vals[71] = v71
		var v93 uint64
		if v23 != 0 {
			v93 = v92
		} else {
			v93 = v73
		}
		vals[93] = v93
		var v96 uint64
		if v23 != 0 {
			v96 = v95
		} else {
			v96 = v94
		}
		vals[96] = v96
		v101 := v8 & v100
		vals[101] = v101
		var v105 uint64
		if v101 != 0 {
			v105 = v104
		} else {
			v105 = v98
		}
		vals[105] = v105
		var v108 uint64
		if v101 != 0 {
			v108 = v107
		} else {
			v108 = v106
		}
		vals[108] = v108
		v111 := v8 & v17
		vals[111] = v111
		var v118 uint64
		if v111 != 0 {
			v118 = v117
		} else {
			v118 = v110
		}
		vals[118] = v118
		var v121 uint64
		if v111 != 0 {
			v121 = v120
		} else {
			v121 = v119
		}
		vals[121] = v121
		var v126 uint64
		if v4 != 0 {
			v126 = v125
		} else {
			v126 = v123
		}
		vals[126] = v126
		var v129 uint64
		if v4 != 0 {
			v129 = v128
		} else {
			v129 = v127
		}
		vals[129] = v129
		var v131 uint64
		if v42 == 0x1 {
			v131 = 1
		}
		vals[131] = v131
		v132 := v28 & v131
		vals[132] = v132
		var v134 uint64
		if v132 != 0 {
			v134 = v133
		} else {
			v134 = v130
		}
		vals[134] = v134
		var v136 uint64
		if v42 == 0x9 {
			v136 = 1
		}
		vals[136] = v136
		v137 := v28 & v136
		vals[137] = v137
		var v139 uint64
		if v137 != 0 {
			v139 = v138
		} else {
			v139 = v135
		}
		vals[139] = v139
		var v141 uint64
		if v42 == 0x8 {
			v141 = 1
		}
		vals[141] = v141
		v142 := v26 & v141
		vals[142] = v142
		var v144 uint64
		if v142 != 0 {
			v144 = v143
		} else {
			v144 = v140
		}
		vals[144] = v144
		var v146 uint64
		if v42 == 0x7 {
			v146 = 1
		}
		vals[146] = v146
		v147 := v25 & v146
		vals[147] = v147
		var v149 uint64
		if v147 != 0 {
			v149 = v148
		} else {
			v149 = v145
		}
		vals[149] = v149
		var v151 uint64
		if v42 == 0x6 {
			v151 = 1
		}
		vals[151] = v151
		v152 := v23 & v151
		vals[152] = v152
		var v154 uint64
		if v152 != 0 {
			v154 = v153
		} else {
			v154 = v150
		}
		vals[154] = v154
		v156 := v22 & v146
		vals[156] = v156
		var v158 uint64
		if v156 != 0 {
			v158 = v157
		} else {
			v158 = v155
		}
		vals[158] = v158
		var v160 uint64
		if v42 == 0x5 {
			v160 = 1
		}
		vals[160] = v160
		v161 := v8 & v160
		vals[161] = v161
		var v163 uint64
		if v161 != 0 {
			v163 = v162
		} else {
			v163 = v159
		}
		vals[163] = v163
		var v165 uint64
		if v42 == 0x4 {
			v165 = 1
		}
		vals[165] = v165
		v166 := v8 & v165
		vals[166] = v166
		var v168 uint64
		if v166 != 0 {
			v168 = v167
		} else {
			v168 = v164
		}
		vals[168] = v168
		v170 := v8 & v146
		vals[170] = v170
		var v172 uint64
		if v170 != 0 {
			v172 = v171
		} else {
			v172 = v169
		}
		vals[172] = v172
		var v174 uint64
		if v42 == 0x3 {
			v174 = 1
		}
		vals[174] = v174
		v175 := v6 & v174
		vals[175] = v175
		var v177 uint64
		if v175 != 0 {
			v177 = v176
		} else {
			v177 = v173
		}
		vals[177] = v177
		var v179 uint64
		if v42 == 0x2 {
			v179 = 1
		}
		vals[179] = v179
		v180 := v4 & v179
		vals[180] = v180
		var v182 uint64
		if v180 != 0 {
			v182 = v181
		} else {
			v182 = v178
		}
		vals[182] = v182
		v184 := v2 & v131
		vals[184] = v184
		var v186 uint64
		if v184 != 0 {
			v186 = v185
		} else {
			v186 = v183
		}
		vals[186] = v186
		var v187 uint64
		if v0 == 0x9 {
			v187 = 1
		}
		vals[187] = v187
	}
	done := vals[187] != 0
	l0 := vals[42] & 0xf
	l1 := vals[45] & 0x1fff
	l2 := vals[47] & 0xffffff
	l3 := vals[66] & 0xffffff
	l4 := vals[71] & 0xffffff
	l5 := vals[47] & 0xffffff
	l6 := vals[93] & 0xffffff
	l7 := vals[96] & 0xffffff
	l8 := vals[47] & 0xffffff
	l9 := vals[105] & 0xffffff
	l10 := vals[108] & 0xffffff
	l11 := vals[47] & 0xffffff
	l12 := vals[118] & 0xffffff
	l13 := vals[121] & 0xffffff
	l14 := vals[47] & 0xffffff
	l15 := vals[126] & 0xffffff
	l16 := vals[129] & 0xffffff
	l17 := vals[134] & 0xffffff
	l18 := vals[139] & 0xffffff
	l19 := vals[144] & 0xffffff
	l20 := vals[149] & 0xffffff
	l21 := vals[154] & 0xffffff
	l22 := vals[158] & 0xffffff
	l23 := vals[163] & 0xffffff
	l24 := vals[168] & 0xffffff
	l25 := vals[172] & 0xffffff
	l26 := vals[177] & 0xffffff
	l27 := vals[182] & 0xffffff
	l28 := vals[186] & 0xffffff
	vals[0] = l0
	vals[9] = l1
	vals[46] = l2
	vals[48] = l3
	vals[67] = l4
	vals[72] = l5
	vals[73] = l6
	vals[94] = l7
	vals[97] = l8
	vals[98] = l9
	vals[106] = l10
	vals[109] = l11
	vals[110] = l12
	vals[119] = l13
	vals[122] = l14
	vals[123] = l15
	vals[127] = l16
	vals[130] = l17
	vals[135] = l18
	vals[140] = l19
	vals[145] = l20
	vals[150] = l21
	vals[155] = l22
	vals[159] = l23
	vals[164] = l24
	vals[169] = l25
	vals[173] = l26
	vals[178] = l27
	vals[183] = l28
	return cycles + 1, done
}

func step_h264_slice_t42(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[133]
	m0 := mems[0]
	v0 := vals[0]
	v9 := vals[9]
	v46 := vals[46]
	v65 := vals[65]
	v86 := vals[86]
	v90 := vals[90]
	v98 := vals[98]
	v101 := vals[101]
	v110 := vals[110]
	v114 := vals[114]
	v119 := vals[119]
	v124 := vals[124]
	v129 := vals[129]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v65
			v89 := v86
			v97 := v90
			v100 := v98
			v109 := v101
			v113 := v110
			v118 := v114
			v123 := v119
			v128 := v124
			v132 := v129
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = 0x1
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		case 0x1:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			v111 := (v53 >> 1)
			v112 := (v110 + v111) & 0xffffff
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v65
			v89 := v86
			v97 := v90
			v100 := v98
			v109 := v101
			v113 := v112
			v118 := v114
			v123 := v119
			v128 := v124
			v132 := v129
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = 0x2
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		case 0x2:
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v65
			v89 := v86
			v97 := v90
			v100 := v98
			v109 := v101
			v113 := v110
			v118 := v114
			v123 := v119
			v128 := v124
			v132 := v129
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = 0x3
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		case 0x3:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v12 := v10 & 0x3
			var v14 uint64
			if v12 == 0x0 {
				v14 = 1
			}
			var v17 uint64
			if v12 == 0x1 {
				v17 = 1
			}
			var v20 uint64
			if v17 != 0 {
				v20 = 0x4
			} else {
				v20 = 0x5
			}
			var v21 uint64
			if v14 != 0 {
				v21 = 0x7
			} else {
				v21 = v20
			}
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			var v55 uint64
			if v53 != 0x0 {
				v55 = 1
			}
			v56 := ^v55 & 0x1
			v59 := (v46 + 0x8) & 0xffffff
			v62 := (v46 + 0xc) & 0xffffff
			v68 := (v10 >> 9)
			v70 := v68 & 0x7
			v72 := v70
			v74 := (v72 << 1) & 0xff
			v75 := (v72 + v74) & 0xff
			var v92 uint64
			if v12 == 0x2 {
				v92 = 1
			}
			v95 := (0x3 + v75) & 0xff
			v96 := (v90 + v95) & 0xffffff
			v99 := (v98 + 0x1) & 0xffffff
			v104 := v53
			v105 := (v53 >> 2)
			v106 := (v104 - v105) & 0xff
			v107 := (0xa + v106) & 0xff
			v108 := (v101 + v107) & 0xffffff
			v127 := (v124 + 0x1) & 0xffffff
			v131 := (v129 + 0x1) & 0xffffff
			v39 := v21
			v40 := v39
			v41 := v40
			v42 := v41
			v45 := v9
			v48 := v14
			v49 := v48
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v89 := v86
			v93 := v92
			var v97 uint64
			if v93 != 0 {
				v97 = v96
			} else {
				v97 = v90
			}
			var v100 uint64
			if v93 != 0 {
				v100 = v99
			} else {
				v100 = v98
			}
			v102 := v17
			var v109 uint64
			if v102 != 0 {
				v109 = v108
			} else {
				v109 = v101
			}
			v113 := v110
			var v115 uint64
			if v42 == 0x7 {
				v115 = 1
			}
			v118 := v114
			v123 := v119
			var v125 uint64
			if v42 == 0x5 {
				v125 = 1
			}
			v126 := v125
			var v128 uint64
			if v126 != 0 {
				v128 = v127
			} else {
				v128 = v124
			}
			v130 := v115
			var v132 uint64
			if v130 != 0 {
				v132 = v131
			} else {
				v132 = v129
			}
			n0 := v42
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = n0
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		case 0x4:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			var v55 uint64
			if v53 != 0x0 {
				v55 = 1
			}
			v56 := ^v55 & 0x1
			v59 := (v46 + 0x8) & 0xffffff
			v62 := (v46 + 0xc) & 0xffffff
			v45 := v9
			v57 := v56
			v60 := v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v89 := v86
			v97 := v90
			v100 := v98
			v109 := v101
			v113 := v110
			v118 := v114
			v123 := v119
			v128 := v124
			v132 := v129
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = 0x7
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		case 0x5:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v68 := (v10 >> 9)
			v70 := v68 & 0x7
			v72 := v70
			v74 := (v72 << 1) & 0xff
			v75 := (v72 + v74) & 0xff
			v76 := (0x2 + v75) & 0xff
			v78 := (v10 >> 8)
			v80 := v78 & 0x1
			var v82 uint64
			if v80 != 0 {
				v82 = 0x14
			} else {
				v82 = 0x0
			}
			v83 := (v76 + v82) & 0xff
			v84 := (v65 + v83) & 0xffffff
			v88 := (v86 + 0x1) & 0xffffff
			v122 := (v119 + 0x1) & 0xffffff
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v84
			v89 := v88
			v97 := v90
			v100 := v98
			v109 := v101
			v113 := v110
			v118 := v114
			v123 := v122
			v128 := v124
			v132 := v129
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = 0x6
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		case 0x6:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			var v55 uint64
			if v53 != 0x0 {
				v55 = 1
			}
			v56 := ^v55 & 0x1
			v59 := (v46 + 0x8) & 0xffffff
			v62 := (v46 + 0xc) & 0xffffff
			v117 := (v114 + 0x1) & 0xffffff
			v45 := v9
			v57 := v56
			v60 := v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v89 := v86
			v97 := v90
			v100 := v98
			v109 := v101
			v113 := v110
			v118 := v117
			v123 := v119
			v128 := v124
			v132 := v129
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = 0x7
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		case 0x7:
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v65
			v89 := v86
			v97 := v90
			v100 := v98
			v109 := v101
			v113 := v110
			v118 := v114
			v123 := v119
			v128 := v124
			v132 := v129
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = 0x8
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		case 0x8:
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0x1fff
			}
			var v31 uint64
			if v30 <= v9 {
				v31 = 1
			}
			var v33 uint64
			if v31 != 0 {
				v33 = 0x9
			} else {
				v33 = 0x1
			}
			v44 := (v9 + 0x1) & 0x1fff
			v34 := v33
			v35 := v34
			v36 := v35
			v37 := v36
			v38 := v37
			v39 := v38
			v40 := v39
			v41 := v40
			v42 := v41
			v45 := v44
			v63 := v46
			v64 := v63
			v85 := v65
			v89 := v86
			v97 := v90
			v100 := v98
			v109 := v101
			v113 := v110
			v118 := v114
			v123 := v119
			v128 := v124
			v132 := v129
			n0 := v42
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = n0
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		case 0x9:
			break loop
		default:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v12 := v10 & 0x3
			var v14 uint64
			if v12 == 0x0 {
				v14 = 1
			}
			var v17 uint64
			if v12 == 0x1 {
				v17 = 1
			}
			var v20 uint64
			if v17 != 0 {
				v20 = 0x4
			} else {
				v20 = 0x5
			}
			var v21 uint64
			if v14 != 0 {
				v21 = 0x7
			} else {
				v21 = v20
			}
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0x1fff
			}
			var v31 uint64
			if v30 <= v9 {
				v31 = 1
			}
			var v33 uint64
			if v31 != 0 {
				v33 = 0x9
			} else {
				v33 = 0x1
			}
			v44 := (v9 + 0x1) & 0x1fff
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			var v55 uint64
			if v53 != 0x0 {
				v55 = 1
			}
			v56 := ^v55 & 0x1
			v59 := (v46 + 0x8) & 0xffffff
			v62 := (v46 + 0xc) & 0xffffff
			v68 := (v10 >> 9)
			v70 := v68 & 0x7
			v72 := v70
			v74 := (v72 << 1) & 0xff
			v75 := (v72 + v74) & 0xff
			v76 := (0x2 + v75) & 0xff
			v78 := (v10 >> 8)
			v80 := v78 & 0x1
			var v82 uint64
			if v80 != 0 {
				v82 = 0x14
			} else {
				v82 = 0x0
			}
			v83 := (v76 + v82) & 0xff
			v84 := (v65 + v83) & 0xffffff
			v88 := (v86 + 0x1) & 0xffffff
			var v92 uint64
			if v12 == 0x2 {
				v92 = 1
			}
			v95 := (0x3 + v75) & 0xff
			v96 := (v90 + v95) & 0xffffff
			v99 := (v98 + 0x1) & 0xffffff
			v104 := v53
			v105 := (v53 >> 2)
			v106 := (v104 - v105) & 0xff
			v107 := (0xa + v106) & 0xff
			v108 := (v101 + v107) & 0xffffff
			v111 := (v53 >> 1)
			v112 := (v110 + v111) & 0xffffff
			v117 := (v114 + 0x1) & 0xffffff
			v122 := (v119 + 0x1) & 0xffffff
			v127 := (v124 + 0x1) & 0xffffff
			v131 := (v129 + 0x1) & 0xffffff
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
			var v22 uint64
			if v0 == 0x4 {
				v22 = 1
			}
			var v23 uint64
			if v0 == 0x5 {
				v23 = 1
			}
			var v25 uint64
			if v0 == 0x6 {
				v25 = 1
			}
			var v26 uint64
			if v0 == 0x7 {
				v26 = 1
			}
			var v28 uint64
			if v0 == 0x8 {
				v28 = 1
			}
			var v34 uint64
			if v28 != 0 {
				v34 = v33
			} else {
				v34 = v0
			}
			var v35 uint64
			if v26 != 0 {
				v35 = 0x8
			} else {
				v35 = v34
			}
			var v36 uint64
			if v25 != 0 {
				v36 = 0x7
			} else {
				v36 = v35
			}
			var v37 uint64
			if v23 != 0 {
				v37 = 0x6
			} else {
				v37 = v36
			}
			var v38 uint64
			if v22 != 0 {
				v38 = 0x7
			} else {
				v38 = v37
			}
			var v39 uint64
			if v8 != 0 {
				v39 = v21
			} else {
				v39 = v38
			}
			var v40 uint64
			if v6 != 0 {
				v40 = 0x3
			} else {
				v40 = v39
			}
			var v41 uint64
			if v4 != 0 {
				v41 = 0x2
			} else {
				v41 = v40
			}
			var v42 uint64
			if v2 != 0 {
				v42 = 0x1
			} else {
				v42 = v41
			}
			var v45 uint64
			if v28 != 0 {
				v45 = v44
			} else {
				v45 = v9
			}
			v47 := (v22 | v25)
			v48 := v8 & v14
			v49 := (v47 | v48)
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			var v85 uint64
			if v23 != 0 {
				v85 = v84
			} else {
				v85 = v65
			}
			var v89 uint64
			if v23 != 0 {
				v89 = v88
			} else {
				v89 = v86
			}
			v93 := v8 & v92
			var v97 uint64
			if v93 != 0 {
				v97 = v96
			} else {
				v97 = v90
			}
			var v100 uint64
			if v93 != 0 {
				v100 = v99
			} else {
				v100 = v98
			}
			v102 := v8 & v17
			var v109 uint64
			if v102 != 0 {
				v109 = v108
			} else {
				v109 = v101
			}
			var v113 uint64
			if v4 != 0 {
				v113 = v112
			} else {
				v113 = v110
			}
			var v115 uint64
			if v42 == 0x7 {
				v115 = 1
			}
			v116 := v25 & v115
			var v118 uint64
			if v116 != 0 {
				v118 = v117
			} else {
				v118 = v114
			}
			var v120 uint64
			if v42 == 0x6 {
				v120 = 1
			}
			v121 := v23 & v120
			var v123 uint64
			if v121 != 0 {
				v123 = v122
			} else {
				v123 = v119
			}
			var v125 uint64
			if v42 == 0x5 {
				v125 = 1
			}
			v126 := v8 & v125
			var v128 uint64
			if v126 != 0 {
				v128 = v127
			} else {
				v128 = v124
			}
			v130 := v8 & v115
			var v132 uint64
			if v130 != 0 {
				v132 = v131
			} else {
				v132 = v129
			}
			var v133 uint64
			if v0 == 0x9 {
				v133 = 1
			}
			if v133 != 0 {
				break loop
			}
			n0 := v42
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = n0
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		}
	}
	vals[0] = v0
	vals[9] = v9
	vals[46] = v46
	vals[65] = v65
	vals[86] = v86
	vals[90] = v90
	vals[98] = v98
	vals[101] = v101
	vals[110] = v110
	vals[114] = v114
	vals[119] = v119
	vals[124] = v124
	vals[129] = v129
	var v10 uint64
	if addr := uint64(v9); addr < uint64(len(m0)) {
		v10 = m0[addr] & 0xfffffff
	}
	vals[10] = v10
	v12 := v10 & 0x3
	vals[12] = v12
	var v14 uint64
	if v12 == 0x0 {
		v14 = 1
	}
	vals[14] = v14
	var v17 uint64
	if v12 == 0x1 {
		v17 = 1
	}
	vals[17] = v17
	var v20 uint64
	if v17 != 0 {
		v20 = 0x4
	} else {
		v20 = 0x5
	}
	vals[20] = v20
	var v21 uint64
	if v14 != 0 {
		v21 = 0x7
	} else {
		v21 = v20
	}
	vals[21] = v21
	var v30 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v30 = m0[addr] & 0x1fff
	}
	vals[30] = v30
	var v31 uint64
	if v30 <= v9 {
		v31 = 1
	}
	vals[31] = v31
	var v33 uint64
	if v31 != 0 {
		v33 = 0x9
	} else {
		v33 = 0x1
	}
	vals[33] = v33
	v44 := (v9 + 0x1) & 0x1fff
	vals[44] = v44
	v51 := (v10 >> 2)
	vals[51] = v51
	v53 := v51 & 0x3f
	vals[53] = v53
	var v55 uint64
	if v53 != 0x0 {
		v55 = 1
	}
	vals[55] = v55
	v56 := ^v55 & 0x1
	vals[56] = v56
	v59 := (v46 + 0x8) & 0xffffff
	vals[59] = v59
	v62 := (v46 + 0xc) & 0xffffff
	vals[62] = v62
	v68 := (v10 >> 9)
	vals[68] = v68
	v70 := v68 & 0x7
	vals[70] = v70
	v72 := v70
	vals[72] = v72
	v74 := (v72 << 1) & 0xff
	vals[74] = v74
	v75 := (v72 + v74) & 0xff
	vals[75] = v75
	v76 := (0x2 + v75) & 0xff
	vals[76] = v76
	v78 := (v10 >> 8)
	vals[78] = v78
	v80 := v78 & 0x1
	vals[80] = v80
	var v82 uint64
	if v80 != 0 {
		v82 = 0x14
	} else {
		v82 = 0x0
	}
	vals[82] = v82
	v83 := (v76 + v82) & 0xff
	vals[83] = v83
	v84 := (v65 + v83) & 0xffffff
	vals[84] = v84
	v88 := (v86 + 0x1) & 0xffffff
	vals[88] = v88
	var v92 uint64
	if v12 == 0x2 {
		v92 = 1
	}
	vals[92] = v92
	v95 := (0x3 + v75) & 0xff
	vals[95] = v95
	v96 := (v90 + v95) & 0xffffff
	vals[96] = v96
	v99 := (v98 + 0x1) & 0xffffff
	vals[99] = v99
	v104 := v53
	vals[104] = v104
	v105 := (v53 >> 2)
	vals[105] = v105
	v106 := (v104 - v105) & 0xff
	vals[106] = v106
	v107 := (0xa + v106) & 0xff
	vals[107] = v107
	v108 := (v101 + v107) & 0xffffff
	vals[108] = v108
	v111 := (v53 >> 1)
	vals[111] = v111
	v112 := (v110 + v111) & 0xffffff
	vals[112] = v112
	v117 := (v114 + 0x1) & 0xffffff
	vals[117] = v117
	v122 := (v119 + 0x1) & 0xffffff
	vals[122] = v122
	v127 := (v124 + 0x1) & 0xffffff
	vals[127] = v127
	v131 := (v129 + 0x1) & 0xffffff
	vals[131] = v131
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x0
		vals[35] = 0x0
		vals[36] = 0x0
		vals[37] = 0x0
		vals[38] = 0x0
		vals[39] = 0x0
		vals[40] = 0x0
		vals[41] = 0x0
		vals[42] = 0x1
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v86
		vals[89] = v89
		vals[93] = 0x0
		v97 := v90
		vals[97] = v97
		v100 := v98
		vals[100] = v100
		vals[102] = 0x0
		v109 := v101
		vals[109] = v109
		v113 := v110
		vals[113] = v113
		vals[115] = 0x0
		vals[116] = 0x0
		v118 := v114
		vals[118] = v118
		vals[120] = 0x0
		vals[121] = 0x0
		v123 := v119
		vals[123] = v123
		vals[125] = 0x0
		vals[126] = 0x0
		v128 := v124
		vals[128] = v128
		vals[130] = 0x0
		v132 := v129
		vals[132] = v132
		vals[133] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x1
		vals[35] = 0x1
		vals[36] = 0x1
		vals[37] = 0x1
		vals[38] = 0x1
		vals[39] = 0x1
		vals[40] = 0x1
		vals[41] = 0x2
		vals[42] = 0x2
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v86
		vals[89] = v89
		vals[93] = 0x0
		v97 := v90
		vals[97] = v97
		v100 := v98
		vals[100] = v100
		vals[102] = 0x0
		v109 := v101
		vals[109] = v109
		v113 := v112
		vals[113] = v113
		vals[115] = 0x0
		vals[116] = 0x0
		v118 := v114
		vals[118] = v118
		vals[120] = 0x0
		vals[121] = 0x0
		v123 := v119
		vals[123] = v123
		vals[125] = 0x0
		vals[126] = 0x0
		v128 := v124
		vals[128] = v128
		vals[130] = 0x0
		v132 := v129
		vals[132] = v132
		vals[133] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x2
		vals[35] = 0x2
		vals[36] = 0x2
		vals[37] = 0x2
		vals[38] = 0x2
		vals[39] = 0x2
		vals[40] = 0x3
		vals[41] = 0x3
		vals[42] = 0x3
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v86
		vals[89] = v89
		vals[93] = 0x0
		v97 := v90
		vals[97] = v97
		v100 := v98
		vals[100] = v100
		vals[102] = 0x0
		v109 := v101
		vals[109] = v109
		v113 := v110
		vals[113] = v113
		vals[115] = 0x0
		vals[116] = 0x0
		v118 := v114
		vals[118] = v118
		vals[120] = 0x0
		vals[121] = 0x0
		v123 := v119
		vals[123] = v123
		vals[125] = 0x0
		vals[126] = 0x0
		v128 := v124
		vals[128] = v128
		vals[130] = 0x0
		v132 := v129
		vals[132] = v132
		vals[133] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x3
		vals[35] = 0x3
		vals[36] = 0x3
		vals[37] = 0x3
		vals[38] = 0x3
		v39 := v21
		vals[39] = v39
		v40 := v39
		vals[40] = v40
		v41 := v40
		vals[41] = v41
		v42 := v41
		vals[42] = v42
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		v48 := v14
		vals[48] = v48
		v49 := v48
		vals[49] = v49
		v57 := v49 & v56
		vals[57] = v57
		v60 := v49 & v55
		vals[60] = v60
		var v63 uint64
		if v60 != 0 {
			v63 = v62
		} else {
			v63 = v46
		}
		vals[63] = v63
		var v64 uint64
		if v57 != 0 {
			v64 = v59
		} else {
			v64 = v63
		}
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v86
		vals[89] = v89
		v93 := v92
		vals[93] = v93
		var v97 uint64
		if v93 != 0 {
			v97 = v96
		} else {
			v97 = v90
		}
		vals[97] = v97
		var v100 uint64
		if v93 != 0 {
			v100 = v99
		} else {
			v100 = v98
		}
		vals[100] = v100
		v102 := v17
		vals[102] = v102
		var v109 uint64
		if v102 != 0 {
			v109 = v108
		} else {
			v109 = v101
		}
		vals[109] = v109
		v113 := v110
		vals[113] = v113
		var v115 uint64
		if v42 == 0x7 {
			v115 = 1
		}
		vals[115] = v115
		vals[116] = 0x0
		v118 := v114
		vals[118] = v118
		var v120 uint64
		if v42 == 0x6 {
			v120 = 1
		}
		vals[120] = v120
		vals[121] = 0x0
		v123 := v119
		vals[123] = v123
		var v125 uint64
		if v42 == 0x5 {
			v125 = 1
		}
		vals[125] = v125
		v126 := v125
		vals[126] = v126
		var v128 uint64
		if v126 != 0 {
			v128 = v127
		} else {
			v128 = v124
		}
		vals[128] = v128
		v130 := v115
		vals[130] = v130
		var v132 uint64
		if v130 != 0 {
			v132 = v131
		} else {
			v132 = v129
		}
		vals[132] = v132
		vals[133] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x1
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x4
		vals[35] = 0x4
		vals[36] = 0x4
		vals[37] = 0x4
		vals[38] = 0x7
		vals[39] = 0x7
		vals[40] = 0x7
		vals[41] = 0x7
		vals[42] = 0x7
		v45 := v9
		vals[45] = v45
		vals[47] = 0x1
		vals[48] = 0x0
		vals[49] = 0x1
		v57 := v56
		vals[57] = v57
		v60 := v55
		vals[60] = v60
		var v63 uint64
		if v60 != 0 {
			v63 = v62
		} else {
			v63 = v46
		}
		vals[63] = v63
		var v64 uint64
		if v57 != 0 {
			v64 = v59
		} else {
			v64 = v63
		}
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v86
		vals[89] = v89
		vals[93] = 0x0
		v97 := v90
		vals[97] = v97
		v100 := v98
		vals[100] = v100
		vals[102] = 0x0
		v109 := v101
		vals[109] = v109
		v113 := v110
		vals[113] = v113
		vals[115] = 0x1
		vals[116] = 0x0
		v118 := v114
		vals[118] = v118
		vals[120] = 0x0
		vals[121] = 0x0
		v123 := v119
		vals[123] = v123
		vals[125] = 0x0
		vals[126] = 0x0
		v128 := v124
		vals[128] = v128
		vals[130] = 0x0
		v132 := v129
		vals[132] = v132
		vals[133] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x1
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x5
		vals[35] = 0x5
		vals[36] = 0x5
		vals[37] = 0x6
		vals[38] = 0x6
		vals[39] = 0x6
		vals[40] = 0x6
		vals[41] = 0x6
		vals[42] = 0x6
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v84
		vals[85] = v85
		v89 := v88
		vals[89] = v89
		vals[93] = 0x0
		v97 := v90
		vals[97] = v97
		v100 := v98
		vals[100] = v100
		vals[102] = 0x0
		v109 := v101
		vals[109] = v109
		v113 := v110
		vals[113] = v113
		vals[115] = 0x0
		vals[116] = 0x0
		v118 := v114
		vals[118] = v118
		vals[120] = 0x1
		vals[121] = 0x1
		v123 := v122
		vals[123] = v123
		vals[125] = 0x0
		vals[126] = 0x0
		v128 := v124
		vals[128] = v128
		vals[130] = 0x0
		v132 := v129
		vals[132] = v132
		vals[133] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x1
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x6
		vals[35] = 0x6
		vals[36] = 0x7
		vals[37] = 0x7
		vals[38] = 0x7
		vals[39] = 0x7
		vals[40] = 0x7
		vals[41] = 0x7
		vals[42] = 0x7
		v45 := v9
		vals[45] = v45
		vals[47] = 0x1
		vals[48] = 0x0
		vals[49] = 0x1
		v57 := v56
		vals[57] = v57
		v60 := v55
		vals[60] = v60
		var v63 uint64
		if v60 != 0 {
			v63 = v62
		} else {
			v63 = v46
		}
		vals[63] = v63
		var v64 uint64
		if v57 != 0 {
			v64 = v59
		} else {
			v64 = v63
		}
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v86
		vals[89] = v89
		vals[93] = 0x0
		v97 := v90
		vals[97] = v97
		v100 := v98
		vals[100] = v100
		vals[102] = 0x0
		v109 := v101
		vals[109] = v109
		v113 := v110
		vals[113] = v113
		vals[115] = 0x1
		vals[116] = 0x1
		v118 := v117
		vals[118] = v118
		vals[120] = 0x0
		vals[121] = 0x0
		v123 := v119
		vals[123] = v123
		vals[125] = 0x0
		vals[126] = 0x0
		v128 := v124
		vals[128] = v128
		vals[130] = 0x0
		v132 := v129
		vals[132] = v132
		vals[133] = 0x0
	case 0x7:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x1
		vals[28] = 0x0
		vals[34] = 0x7
		vals[35] = 0x8
		vals[36] = 0x8
		vals[37] = 0x8
		vals[38] = 0x8
		vals[39] = 0x8
		vals[40] = 0x8
		vals[41] = 0x8
		vals[42] = 0x8
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v86
		vals[89] = v89
		vals[93] = 0x0
		v97 := v90
		vals[97] = v97
		v100 := v98
		vals[100] = v100
		vals[102] = 0x0
		v109 := v101
		vals[109] = v109
		v113 := v110
		vals[113] = v113
		vals[115] = 0x0
		vals[116] = 0x0
		v118 := v114
		vals[118] = v118
		vals[120] = 0x0
		vals[121] = 0x0
		v123 := v119
		vals[123] = v123
		vals[125] = 0x0
		vals[126] = 0x0
		v128 := v124
		vals[128] = v128
		vals[130] = 0x0
		v132 := v129
		vals[132] = v132
		vals[133] = 0x0
	case 0x8:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x1
		v34 := v33
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v37 := v36
		vals[37] = v37
		v38 := v37
		vals[38] = v38
		v39 := v38
		vals[39] = v39
		v40 := v39
		vals[40] = v40
		v41 := v40
		vals[41] = v41
		v42 := v41
		vals[42] = v42
		v45 := v44
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v86
		vals[89] = v89
		vals[93] = 0x0
		v97 := v90
		vals[97] = v97
		v100 := v98
		vals[100] = v100
		vals[102] = 0x0
		v109 := v101
		vals[109] = v109
		v113 := v110
		vals[113] = v113
		var v115 uint64
		if v42 == 0x7 {
			v115 = 1
		}
		vals[115] = v115
		vals[116] = 0x0
		v118 := v114
		vals[118] = v118
		var v120 uint64
		if v42 == 0x6 {
			v120 = 1
		}
		vals[120] = v120
		vals[121] = 0x0
		v123 := v119
		vals[123] = v123
		var v125 uint64
		if v42 == 0x5 {
			v125 = 1
		}
		vals[125] = v125
		vals[126] = 0x0
		v128 := v124
		vals[128] = v128
		vals[130] = 0x0
		v132 := v129
		vals[132] = v132
		vals[133] = 0x0
	case 0x9:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x9
		vals[35] = 0x9
		vals[36] = 0x9
		vals[37] = 0x9
		vals[38] = 0x9
		vals[39] = 0x9
		vals[40] = 0x9
		vals[41] = 0x9
		vals[42] = 0x9
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v86
		vals[89] = v89
		vals[93] = 0x0
		v97 := v90
		vals[97] = v97
		v100 := v98
		vals[100] = v100
		vals[102] = 0x0
		v109 := v101
		vals[109] = v109
		v113 := v110
		vals[113] = v113
		vals[115] = 0x0
		vals[116] = 0x0
		v118 := v114
		vals[118] = v118
		vals[120] = 0x0
		vals[121] = 0x0
		v123 := v119
		vals[123] = v123
		vals[125] = 0x0
		vals[126] = 0x0
		v128 := v124
		vals[128] = v128
		vals[130] = 0x0
		v132 := v129
		vals[132] = v132
		vals[133] = 0x1
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
		var v22 uint64
		if v0 == 0x4 {
			v22 = 1
		}
		vals[22] = v22
		var v23 uint64
		if v0 == 0x5 {
			v23 = 1
		}
		vals[23] = v23
		var v25 uint64
		if v0 == 0x6 {
			v25 = 1
		}
		vals[25] = v25
		var v26 uint64
		if v0 == 0x7 {
			v26 = 1
		}
		vals[26] = v26
		var v28 uint64
		if v0 == 0x8 {
			v28 = 1
		}
		vals[28] = v28
		var v34 uint64
		if v28 != 0 {
			v34 = v33
		} else {
			v34 = v0
		}
		vals[34] = v34
		var v35 uint64
		if v26 != 0 {
			v35 = 0x8
		} else {
			v35 = v34
		}
		vals[35] = v35
		var v36 uint64
		if v25 != 0 {
			v36 = 0x7
		} else {
			v36 = v35
		}
		vals[36] = v36
		var v37 uint64
		if v23 != 0 {
			v37 = 0x6
		} else {
			v37 = v36
		}
		vals[37] = v37
		var v38 uint64
		if v22 != 0 {
			v38 = 0x7
		} else {
			v38 = v37
		}
		vals[38] = v38
		var v39 uint64
		if v8 != 0 {
			v39 = v21
		} else {
			v39 = v38
		}
		vals[39] = v39
		var v40 uint64
		if v6 != 0 {
			v40 = 0x3
		} else {
			v40 = v39
		}
		vals[40] = v40
		var v41 uint64
		if v4 != 0 {
			v41 = 0x2
		} else {
			v41 = v40
		}
		vals[41] = v41
		var v42 uint64
		if v2 != 0 {
			v42 = 0x1
		} else {
			v42 = v41
		}
		vals[42] = v42
		var v45 uint64
		if v28 != 0 {
			v45 = v44
		} else {
			v45 = v9
		}
		vals[45] = v45
		v47 := (v22 | v25)
		vals[47] = v47
		v48 := v8 & v14
		vals[48] = v48
		v49 := (v47 | v48)
		vals[49] = v49
		v57 := v49 & v56
		vals[57] = v57
		v60 := v49 & v55
		vals[60] = v60
		var v63 uint64
		if v60 != 0 {
			v63 = v62
		} else {
			v63 = v46
		}
		vals[63] = v63
		var v64 uint64
		if v57 != 0 {
			v64 = v59
		} else {
			v64 = v63
		}
		vals[64] = v64
		var v85 uint64
		if v23 != 0 {
			v85 = v84
		} else {
			v85 = v65
		}
		vals[85] = v85
		var v89 uint64
		if v23 != 0 {
			v89 = v88
		} else {
			v89 = v86
		}
		vals[89] = v89
		v93 := v8 & v92
		vals[93] = v93
		var v97 uint64
		if v93 != 0 {
			v97 = v96
		} else {
			v97 = v90
		}
		vals[97] = v97
		var v100 uint64
		if v93 != 0 {
			v100 = v99
		} else {
			v100 = v98
		}
		vals[100] = v100
		v102 := v8 & v17
		vals[102] = v102
		var v109 uint64
		if v102 != 0 {
			v109 = v108
		} else {
			v109 = v101
		}
		vals[109] = v109
		var v113 uint64
		if v4 != 0 {
			v113 = v112
		} else {
			v113 = v110
		}
		vals[113] = v113
		var v115 uint64
		if v42 == 0x7 {
			v115 = 1
		}
		vals[115] = v115
		v116 := v25 & v115
		vals[116] = v116
		var v118 uint64
		if v116 != 0 {
			v118 = v117
		} else {
			v118 = v114
		}
		vals[118] = v118
		var v120 uint64
		if v42 == 0x6 {
			v120 = 1
		}
		vals[120] = v120
		v121 := v23 & v120
		vals[121] = v121
		var v123 uint64
		if v121 != 0 {
			v123 = v122
		} else {
			v123 = v119
		}
		vals[123] = v123
		var v125 uint64
		if v42 == 0x5 {
			v125 = 1
		}
		vals[125] = v125
		v126 := v8 & v125
		vals[126] = v126
		var v128 uint64
		if v126 != 0 {
			v128 = v127
		} else {
			v128 = v124
		}
		vals[128] = v128
		v130 := v8 & v115
		vals[130] = v130
		var v132 uint64
		if v130 != 0 {
			v132 = v131
		} else {
			v132 = v129
		}
		vals[132] = v132
		var v133 uint64
		if v0 == 0x9 {
			v133 = 1
		}
		vals[133] = v133
	}
	done := vals[133] != 0
	l0 := vals[42] & 0xf
	l1 := vals[45] & 0x1fff
	l2 := vals[64] & 0xffffff
	l3 := vals[85] & 0xffffff
	l4 := vals[89] & 0xffffff
	l5 := vals[97] & 0xffffff
	l6 := vals[100] & 0xffffff
	l7 := vals[109] & 0xffffff
	l8 := vals[113] & 0xffffff
	l9 := vals[118] & 0xffffff
	l10 := vals[123] & 0xffffff
	l11 := vals[128] & 0xffffff
	l12 := vals[132] & 0xffffff
	vals[0] = l0
	vals[9] = l1
	vals[46] = l2
	vals[65] = l3
	vals[86] = l4
	vals[90] = l5
	vals[98] = l6
	vals[101] = l7
	vals[110] = l8
	vals[114] = l9
	vals[119] = l10
	vals[124] = l11
	vals[129] = l12
	return cycles + 1, done
}

func step_h264_slice_quick(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[113]
	m0 := mems[0]
	v0 := vals[0]
	v9 := vals[9]
	v46 := vals[46]
	v65 := vals[65]
	v86 := vals[86]
	v94 := vals[94]
	v103 := vals[103]
	v107 := vals[107]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v65
			v93 := v86
			v102 := v94
			v106 := v103
			v112 := v107
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = 0x1
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		case 0x1:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			v104 := (v53 >> 1)
			v105 := (v103 + v104) & 0xffffff
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v65
			v93 := v86
			v102 := v94
			v106 := v105
			v112 := v107
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = 0x2
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		case 0x2:
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v65
			v93 := v86
			v102 := v94
			v106 := v103
			v112 := v107
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = 0x3
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		case 0x3:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v12 := v10 & 0x3
			var v14 uint64
			if v12 == 0x0 {
				v14 = 1
			}
			var v17 uint64
			if v12 == 0x1 {
				v17 = 1
			}
			var v20 uint64
			if v17 != 0 {
				v20 = 0x4
			} else {
				v20 = 0x5
			}
			var v21 uint64
			if v14 != 0 {
				v21 = 0x7
			} else {
				v21 = v20
			}
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			var v55 uint64
			if v53 != 0x0 {
				v55 = 1
			}
			v56 := ^v55 & 0x1
			v59 := (v46 + 0x8) & 0xffffff
			v62 := (v46 + 0xc) & 0xffffff
			v68 := (v10 >> 9)
			v70 := v68 & 0x7
			v72 := v70
			v74 := (v72 << 1) & 0xff
			v75 := (v72 + v74) & 0xff
			var v88 uint64
			if v12 == 0x2 {
				v88 = 1
			}
			v91 := (0x3 + v75) & 0xff
			v92 := (v86 + v91) & 0xffffff
			v97 := v53
			v98 := (v53 >> 2)
			v99 := (v97 - v98) & 0xff
			v100 := (0xa + v99) & 0xff
			v101 := (v94 + v100) & 0xffffff
			v111 := (v107 + 0x1) & 0xffffff
			v39 := v21
			v40 := v39
			v41 := v40
			v42 := v41
			v45 := v9
			v48 := v14
			v49 := v48
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v89 := v88
			var v93 uint64
			if v89 != 0 {
				v93 = v92
			} else {
				v93 = v86
			}
			v95 := v17
			var v102 uint64
			if v95 != 0 {
				v102 = v101
			} else {
				v102 = v94
			}
			v106 := v103
			var v108 uint64
			if v42 == 0x7 {
				v108 = 1
			}
			v109 := v108
			var v112 uint64
			if v109 != 0 {
				v112 = v111
			} else {
				v112 = v107
			}
			n0 := v42
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = n0
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		case 0x4:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			var v55 uint64
			if v53 != 0x0 {
				v55 = 1
			}
			v56 := ^v55 & 0x1
			v59 := (v46 + 0x8) & 0xffffff
			v62 := (v46 + 0xc) & 0xffffff
			v45 := v9
			v57 := v56
			v60 := v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v93 := v86
			v102 := v94
			v106 := v103
			v112 := v107
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = 0x7
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		case 0x5:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v68 := (v10 >> 9)
			v70 := v68 & 0x7
			v72 := v70
			v74 := (v72 << 1) & 0xff
			v75 := (v72 + v74) & 0xff
			v76 := (0x2 + v75) & 0xff
			v78 := (v10 >> 8)
			v80 := v78 & 0x1
			var v82 uint64
			if v80 != 0 {
				v82 = 0x14
			} else {
				v82 = 0x0
			}
			v83 := (v76 + v82) & 0xff
			v84 := (v65 + v83) & 0xffffff
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v84
			v93 := v86
			v102 := v94
			v106 := v103
			v112 := v107
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = 0x6
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		case 0x6:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			var v55 uint64
			if v53 != 0x0 {
				v55 = 1
			}
			v56 := ^v55 & 0x1
			v59 := (v46 + 0x8) & 0xffffff
			v62 := (v46 + 0xc) & 0xffffff
			v45 := v9
			v57 := v56
			v60 := v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v93 := v86
			v102 := v94
			v106 := v103
			v112 := v107
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = 0x7
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		case 0x7:
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v65
			v93 := v86
			v102 := v94
			v106 := v103
			v112 := v107
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = 0x8
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		case 0x8:
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0x1fff
			}
			var v31 uint64
			if v30 <= v9 {
				v31 = 1
			}
			var v33 uint64
			if v31 != 0 {
				v33 = 0x9
			} else {
				v33 = 0x1
			}
			v44 := (v9 + 0x1) & 0x1fff
			v34 := v33
			v35 := v34
			v36 := v35
			v37 := v36
			v38 := v37
			v39 := v38
			v40 := v39
			v41 := v40
			v42 := v41
			v45 := v44
			v63 := v46
			v64 := v63
			v85 := v65
			v93 := v86
			v102 := v94
			v106 := v103
			v112 := v107
			n0 := v42
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = n0
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		case 0x9:
			break loop
		default:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v12 := v10 & 0x3
			var v14 uint64
			if v12 == 0x0 {
				v14 = 1
			}
			var v17 uint64
			if v12 == 0x1 {
				v17 = 1
			}
			var v20 uint64
			if v17 != 0 {
				v20 = 0x4
			} else {
				v20 = 0x5
			}
			var v21 uint64
			if v14 != 0 {
				v21 = 0x7
			} else {
				v21 = v20
			}
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0x1fff
			}
			var v31 uint64
			if v30 <= v9 {
				v31 = 1
			}
			var v33 uint64
			if v31 != 0 {
				v33 = 0x9
			} else {
				v33 = 0x1
			}
			v44 := (v9 + 0x1) & 0x1fff
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			var v55 uint64
			if v53 != 0x0 {
				v55 = 1
			}
			v56 := ^v55 & 0x1
			v59 := (v46 + 0x8) & 0xffffff
			v62 := (v46 + 0xc) & 0xffffff
			v68 := (v10 >> 9)
			v70 := v68 & 0x7
			v72 := v70
			v74 := (v72 << 1) & 0xff
			v75 := (v72 + v74) & 0xff
			v76 := (0x2 + v75) & 0xff
			v78 := (v10 >> 8)
			v80 := v78 & 0x1
			var v82 uint64
			if v80 != 0 {
				v82 = 0x14
			} else {
				v82 = 0x0
			}
			v83 := (v76 + v82) & 0xff
			v84 := (v65 + v83) & 0xffffff
			var v88 uint64
			if v12 == 0x2 {
				v88 = 1
			}
			v91 := (0x3 + v75) & 0xff
			v92 := (v86 + v91) & 0xffffff
			v97 := v53
			v98 := (v53 >> 2)
			v99 := (v97 - v98) & 0xff
			v100 := (0xa + v99) & 0xff
			v101 := (v94 + v100) & 0xffffff
			v104 := (v53 >> 1)
			v105 := (v103 + v104) & 0xffffff
			v111 := (v107 + 0x1) & 0xffffff
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
			var v22 uint64
			if v0 == 0x4 {
				v22 = 1
			}
			var v23 uint64
			if v0 == 0x5 {
				v23 = 1
			}
			var v25 uint64
			if v0 == 0x6 {
				v25 = 1
			}
			var v26 uint64
			if v0 == 0x7 {
				v26 = 1
			}
			var v28 uint64
			if v0 == 0x8 {
				v28 = 1
			}
			var v34 uint64
			if v28 != 0 {
				v34 = v33
			} else {
				v34 = v0
			}
			var v35 uint64
			if v26 != 0 {
				v35 = 0x8
			} else {
				v35 = v34
			}
			var v36 uint64
			if v25 != 0 {
				v36 = 0x7
			} else {
				v36 = v35
			}
			var v37 uint64
			if v23 != 0 {
				v37 = 0x6
			} else {
				v37 = v36
			}
			var v38 uint64
			if v22 != 0 {
				v38 = 0x7
			} else {
				v38 = v37
			}
			var v39 uint64
			if v8 != 0 {
				v39 = v21
			} else {
				v39 = v38
			}
			var v40 uint64
			if v6 != 0 {
				v40 = 0x3
			} else {
				v40 = v39
			}
			var v41 uint64
			if v4 != 0 {
				v41 = 0x2
			} else {
				v41 = v40
			}
			var v42 uint64
			if v2 != 0 {
				v42 = 0x1
			} else {
				v42 = v41
			}
			var v45 uint64
			if v28 != 0 {
				v45 = v44
			} else {
				v45 = v9
			}
			v47 := (v22 | v25)
			v48 := v8 & v14
			v49 := (v47 | v48)
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			var v85 uint64
			if v23 != 0 {
				v85 = v84
			} else {
				v85 = v65
			}
			v89 := v8 & v88
			var v93 uint64
			if v89 != 0 {
				v93 = v92
			} else {
				v93 = v86
			}
			v95 := v8 & v17
			var v102 uint64
			if v95 != 0 {
				v102 = v101
			} else {
				v102 = v94
			}
			var v106 uint64
			if v4 != 0 {
				v106 = v105
			} else {
				v106 = v103
			}
			var v108 uint64
			if v42 == 0x7 {
				v108 = 1
			}
			v109 := v8 & v108
			var v112 uint64
			if v109 != 0 {
				v112 = v111
			} else {
				v112 = v107
			}
			var v113 uint64
			if v0 == 0x9 {
				v113 = 1
			}
			if v113 != 0 {
				break loop
			}
			n0 := v42
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = n0
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		}
	}
	vals[0] = v0
	vals[9] = v9
	vals[46] = v46
	vals[65] = v65
	vals[86] = v86
	vals[94] = v94
	vals[103] = v103
	vals[107] = v107
	var v10 uint64
	if addr := uint64(v9); addr < uint64(len(m0)) {
		v10 = m0[addr] & 0xfffffff
	}
	vals[10] = v10
	v12 := v10 & 0x3
	vals[12] = v12
	var v14 uint64
	if v12 == 0x0 {
		v14 = 1
	}
	vals[14] = v14
	var v17 uint64
	if v12 == 0x1 {
		v17 = 1
	}
	vals[17] = v17
	var v20 uint64
	if v17 != 0 {
		v20 = 0x4
	} else {
		v20 = 0x5
	}
	vals[20] = v20
	var v21 uint64
	if v14 != 0 {
		v21 = 0x7
	} else {
		v21 = v20
	}
	vals[21] = v21
	var v30 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v30 = m0[addr] & 0x1fff
	}
	vals[30] = v30
	var v31 uint64
	if v30 <= v9 {
		v31 = 1
	}
	vals[31] = v31
	var v33 uint64
	if v31 != 0 {
		v33 = 0x9
	} else {
		v33 = 0x1
	}
	vals[33] = v33
	v44 := (v9 + 0x1) & 0x1fff
	vals[44] = v44
	v51 := (v10 >> 2)
	vals[51] = v51
	v53 := v51 & 0x3f
	vals[53] = v53
	var v55 uint64
	if v53 != 0x0 {
		v55 = 1
	}
	vals[55] = v55
	v56 := ^v55 & 0x1
	vals[56] = v56
	v59 := (v46 + 0x8) & 0xffffff
	vals[59] = v59
	v62 := (v46 + 0xc) & 0xffffff
	vals[62] = v62
	v68 := (v10 >> 9)
	vals[68] = v68
	v70 := v68 & 0x7
	vals[70] = v70
	v72 := v70
	vals[72] = v72
	v74 := (v72 << 1) & 0xff
	vals[74] = v74
	v75 := (v72 + v74) & 0xff
	vals[75] = v75
	v76 := (0x2 + v75) & 0xff
	vals[76] = v76
	v78 := (v10 >> 8)
	vals[78] = v78
	v80 := v78 & 0x1
	vals[80] = v80
	var v82 uint64
	if v80 != 0 {
		v82 = 0x14
	} else {
		v82 = 0x0
	}
	vals[82] = v82
	v83 := (v76 + v82) & 0xff
	vals[83] = v83
	v84 := (v65 + v83) & 0xffffff
	vals[84] = v84
	var v88 uint64
	if v12 == 0x2 {
		v88 = 1
	}
	vals[88] = v88
	v91 := (0x3 + v75) & 0xff
	vals[91] = v91
	v92 := (v86 + v91) & 0xffffff
	vals[92] = v92
	v97 := v53
	vals[97] = v97
	v98 := (v53 >> 2)
	vals[98] = v98
	v99 := (v97 - v98) & 0xff
	vals[99] = v99
	v100 := (0xa + v99) & 0xff
	vals[100] = v100
	v101 := (v94 + v100) & 0xffffff
	vals[101] = v101
	v104 := (v53 >> 1)
	vals[104] = v104
	v105 := (v103 + v104) & 0xffffff
	vals[105] = v105
	v111 := (v107 + 0x1) & 0xffffff
	vals[111] = v111
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x0
		vals[35] = 0x0
		vals[36] = 0x0
		vals[37] = 0x0
		vals[38] = 0x0
		vals[39] = 0x0
		vals[40] = 0x0
		vals[41] = 0x0
		vals[42] = 0x1
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		vals[89] = 0x0
		v93 := v86
		vals[93] = v93
		vals[95] = 0x0
		v102 := v94
		vals[102] = v102
		v106 := v103
		vals[106] = v106
		vals[108] = 0x0
		vals[109] = 0x0
		v112 := v107
		vals[112] = v112
		vals[113] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x1
		vals[35] = 0x1
		vals[36] = 0x1
		vals[37] = 0x1
		vals[38] = 0x1
		vals[39] = 0x1
		vals[40] = 0x1
		vals[41] = 0x2
		vals[42] = 0x2
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		vals[89] = 0x0
		v93 := v86
		vals[93] = v93
		vals[95] = 0x0
		v102 := v94
		vals[102] = v102
		v106 := v105
		vals[106] = v106
		vals[108] = 0x0
		vals[109] = 0x0
		v112 := v107
		vals[112] = v112
		vals[113] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x2
		vals[35] = 0x2
		vals[36] = 0x2
		vals[37] = 0x2
		vals[38] = 0x2
		vals[39] = 0x2
		vals[40] = 0x3
		vals[41] = 0x3
		vals[42] = 0x3
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		vals[89] = 0x0
		v93 := v86
		vals[93] = v93
		vals[95] = 0x0
		v102 := v94
		vals[102] = v102
		v106 := v103
		vals[106] = v106
		vals[108] = 0x0
		vals[109] = 0x0
		v112 := v107
		vals[112] = v112
		vals[113] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x3
		vals[35] = 0x3
		vals[36] = 0x3
		vals[37] = 0x3
		vals[38] = 0x3
		v39 := v21
		vals[39] = v39
		v40 := v39
		vals[40] = v40
		v41 := v40
		vals[41] = v41
		v42 := v41
		vals[42] = v42
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		v48 := v14
		vals[48] = v48
		v49 := v48
		vals[49] = v49
		v57 := v49 & v56
		vals[57] = v57
		v60 := v49 & v55
		vals[60] = v60
		var v63 uint64
		if v60 != 0 {
			v63 = v62
		} else {
			v63 = v46
		}
		vals[63] = v63
		var v64 uint64
		if v57 != 0 {
			v64 = v59
		} else {
			v64 = v63
		}
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v88
		vals[89] = v89
		var v93 uint64
		if v89 != 0 {
			v93 = v92
		} else {
			v93 = v86
		}
		vals[93] = v93
		v95 := v17
		vals[95] = v95
		var v102 uint64
		if v95 != 0 {
			v102 = v101
		} else {
			v102 = v94
		}
		vals[102] = v102
		v106 := v103
		vals[106] = v106
		var v108 uint64
		if v42 == 0x7 {
			v108 = 1
		}
		vals[108] = v108
		v109 := v108
		vals[109] = v109
		var v112 uint64
		if v109 != 0 {
			v112 = v111
		} else {
			v112 = v107
		}
		vals[112] = v112
		vals[113] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x1
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x4
		vals[35] = 0x4
		vals[36] = 0x4
		vals[37] = 0x4
		vals[38] = 0x7
		vals[39] = 0x7
		vals[40] = 0x7
		vals[41] = 0x7
		vals[42] = 0x7
		v45 := v9
		vals[45] = v45
		vals[47] = 0x1
		vals[48] = 0x0
		vals[49] = 0x1
		v57 := v56
		vals[57] = v57
		v60 := v55
		vals[60] = v60
		var v63 uint64
		if v60 != 0 {
			v63 = v62
		} else {
			v63 = v46
		}
		vals[63] = v63
		var v64 uint64
		if v57 != 0 {
			v64 = v59
		} else {
			v64 = v63
		}
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		vals[89] = 0x0
		v93 := v86
		vals[93] = v93
		vals[95] = 0x0
		v102 := v94
		vals[102] = v102
		v106 := v103
		vals[106] = v106
		vals[108] = 0x1
		vals[109] = 0x0
		v112 := v107
		vals[112] = v112
		vals[113] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x1
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x5
		vals[35] = 0x5
		vals[36] = 0x5
		vals[37] = 0x6
		vals[38] = 0x6
		vals[39] = 0x6
		vals[40] = 0x6
		vals[41] = 0x6
		vals[42] = 0x6
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v84
		vals[85] = v85
		vals[89] = 0x0
		v93 := v86
		vals[93] = v93
		vals[95] = 0x0
		v102 := v94
		vals[102] = v102
		v106 := v103
		vals[106] = v106
		vals[108] = 0x0
		vals[109] = 0x0
		v112 := v107
		vals[112] = v112
		vals[113] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x1
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x6
		vals[35] = 0x6
		vals[36] = 0x7
		vals[37] = 0x7
		vals[38] = 0x7
		vals[39] = 0x7
		vals[40] = 0x7
		vals[41] = 0x7
		vals[42] = 0x7
		v45 := v9
		vals[45] = v45
		vals[47] = 0x1
		vals[48] = 0x0
		vals[49] = 0x1
		v57 := v56
		vals[57] = v57
		v60 := v55
		vals[60] = v60
		var v63 uint64
		if v60 != 0 {
			v63 = v62
		} else {
			v63 = v46
		}
		vals[63] = v63
		var v64 uint64
		if v57 != 0 {
			v64 = v59
		} else {
			v64 = v63
		}
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		vals[89] = 0x0
		v93 := v86
		vals[93] = v93
		vals[95] = 0x0
		v102 := v94
		vals[102] = v102
		v106 := v103
		vals[106] = v106
		vals[108] = 0x1
		vals[109] = 0x0
		v112 := v107
		vals[112] = v112
		vals[113] = 0x0
	case 0x7:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x1
		vals[28] = 0x0
		vals[34] = 0x7
		vals[35] = 0x8
		vals[36] = 0x8
		vals[37] = 0x8
		vals[38] = 0x8
		vals[39] = 0x8
		vals[40] = 0x8
		vals[41] = 0x8
		vals[42] = 0x8
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		vals[89] = 0x0
		v93 := v86
		vals[93] = v93
		vals[95] = 0x0
		v102 := v94
		vals[102] = v102
		v106 := v103
		vals[106] = v106
		vals[108] = 0x0
		vals[109] = 0x0
		v112 := v107
		vals[112] = v112
		vals[113] = 0x0
	case 0x8:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x1
		v34 := v33
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v37 := v36
		vals[37] = v37
		v38 := v37
		vals[38] = v38
		v39 := v38
		vals[39] = v39
		v40 := v39
		vals[40] = v40
		v41 := v40
		vals[41] = v41
		v42 := v41
		vals[42] = v42
		v45 := v44
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		vals[89] = 0x0
		v93 := v86
		vals[93] = v93
		vals[95] = 0x0
		v102 := v94
		vals[102] = v102
		v106 := v103
		vals[106] = v106
		var v108 uint64
		if v42 == 0x7 {
			v108 = 1
		}
		vals[108] = v108
		vals[109] = 0x0
		v112 := v107
		vals[112] = v112
		vals[113] = 0x0
	case 0x9:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x9
		vals[35] = 0x9
		vals[36] = 0x9
		vals[37] = 0x9
		vals[38] = 0x9
		vals[39] = 0x9
		vals[40] = 0x9
		vals[41] = 0x9
		vals[42] = 0x9
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		vals[89] = 0x0
		v93 := v86
		vals[93] = v93
		vals[95] = 0x0
		v102 := v94
		vals[102] = v102
		v106 := v103
		vals[106] = v106
		vals[108] = 0x0
		vals[109] = 0x0
		v112 := v107
		vals[112] = v112
		vals[113] = 0x1
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
		var v22 uint64
		if v0 == 0x4 {
			v22 = 1
		}
		vals[22] = v22
		var v23 uint64
		if v0 == 0x5 {
			v23 = 1
		}
		vals[23] = v23
		var v25 uint64
		if v0 == 0x6 {
			v25 = 1
		}
		vals[25] = v25
		var v26 uint64
		if v0 == 0x7 {
			v26 = 1
		}
		vals[26] = v26
		var v28 uint64
		if v0 == 0x8 {
			v28 = 1
		}
		vals[28] = v28
		var v34 uint64
		if v28 != 0 {
			v34 = v33
		} else {
			v34 = v0
		}
		vals[34] = v34
		var v35 uint64
		if v26 != 0 {
			v35 = 0x8
		} else {
			v35 = v34
		}
		vals[35] = v35
		var v36 uint64
		if v25 != 0 {
			v36 = 0x7
		} else {
			v36 = v35
		}
		vals[36] = v36
		var v37 uint64
		if v23 != 0 {
			v37 = 0x6
		} else {
			v37 = v36
		}
		vals[37] = v37
		var v38 uint64
		if v22 != 0 {
			v38 = 0x7
		} else {
			v38 = v37
		}
		vals[38] = v38
		var v39 uint64
		if v8 != 0 {
			v39 = v21
		} else {
			v39 = v38
		}
		vals[39] = v39
		var v40 uint64
		if v6 != 0 {
			v40 = 0x3
		} else {
			v40 = v39
		}
		vals[40] = v40
		var v41 uint64
		if v4 != 0 {
			v41 = 0x2
		} else {
			v41 = v40
		}
		vals[41] = v41
		var v42 uint64
		if v2 != 0 {
			v42 = 0x1
		} else {
			v42 = v41
		}
		vals[42] = v42
		var v45 uint64
		if v28 != 0 {
			v45 = v44
		} else {
			v45 = v9
		}
		vals[45] = v45
		v47 := (v22 | v25)
		vals[47] = v47
		v48 := v8 & v14
		vals[48] = v48
		v49 := (v47 | v48)
		vals[49] = v49
		v57 := v49 & v56
		vals[57] = v57
		v60 := v49 & v55
		vals[60] = v60
		var v63 uint64
		if v60 != 0 {
			v63 = v62
		} else {
			v63 = v46
		}
		vals[63] = v63
		var v64 uint64
		if v57 != 0 {
			v64 = v59
		} else {
			v64 = v63
		}
		vals[64] = v64
		var v85 uint64
		if v23 != 0 {
			v85 = v84
		} else {
			v85 = v65
		}
		vals[85] = v85
		v89 := v8 & v88
		vals[89] = v89
		var v93 uint64
		if v89 != 0 {
			v93 = v92
		} else {
			v93 = v86
		}
		vals[93] = v93
		v95 := v8 & v17
		vals[95] = v95
		var v102 uint64
		if v95 != 0 {
			v102 = v101
		} else {
			v102 = v94
		}
		vals[102] = v102
		var v106 uint64
		if v4 != 0 {
			v106 = v105
		} else {
			v106 = v103
		}
		vals[106] = v106
		var v108 uint64
		if v42 == 0x7 {
			v108 = 1
		}
		vals[108] = v108
		v109 := v8 & v108
		vals[109] = v109
		var v112 uint64
		if v109 != 0 {
			v112 = v111
		} else {
			v112 = v107
		}
		vals[112] = v112
		var v113 uint64
		if v0 == 0x9 {
			v113 = 1
		}
		vals[113] = v113
	}
	done := vals[113] != 0
	l0 := vals[42] & 0xf
	l1 := vals[45] & 0x1fff
	l2 := vals[64] & 0xffffff
	l3 := vals[85] & 0xffffff
	l4 := vals[93] & 0xffffff
	l5 := vals[102] & 0xffffff
	l6 := vals[106] & 0xffffff
	l7 := vals[112] & 0xffffff
	vals[0] = l0
	vals[9] = l1
	vals[46] = l2
	vals[65] = l3
	vals[86] = l4
	vals[94] = l5
	vals[103] = l6
	vals[107] = l7
	return cycles + 1, done
}

func init() {
	rtl.RegisterNative("cacb145f90acfc06150042fae3ec6a189ea1d8c40ef1d994d3321de3cec67a51", "h264_cone", step_h264_cone)
	rtl.RegisterNative("de1f57a45a5b837b82f8044f7aa92308eeca8e3eea0e26049663e3ee74f91784", "h264_slice_all", step_h264_slice_all)
	rtl.RegisterNative("f1ebf5ed02d2f1d80b1271c8223e6cd1639a32323534d6159422e1fc41971f28", "h264_slice_t42", step_h264_slice_t42)
	rtl.RegisterNative("cb66cbf22c56c3341a0150ada76f2f9c957df40034e5b67e98a8ead4d94f0a35", "h264_slice_quick", step_h264_slice_quick)
}
