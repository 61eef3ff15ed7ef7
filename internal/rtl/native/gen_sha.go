// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func step_sha(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[230]
	m0 := mems[0]
	m1 := mems[1]
	m2 := mems[2]
	v3 := vals[3]
	v4 := vals[4]
	v16 := vals[16]
	v28 := vals[28]
	v36 := vals[36]
	v37 := vals[37]
	v38 := vals[38]
	v39 := vals[39]
	v40 := vals[40]
	v41 := vals[41]
	v42 := vals[42]
	v43 := vals[43]
	v44 := vals[44]
	v45 := vals[45]
	v46 := vals[46]
	v47 := vals[47]
	v48 := vals[48]
	v49 := vals[49]
	v50 := vals[50]
	v51 := vals[51]
	v112 := vals[112]
	v113 := vals[113]
	v114 := vals[114]
	v115 := vals[115]
	v116 := vals[116]
	v117 := vals[117]
	v118 := vals[118]
	v119 := vals[119]
	v120 := vals[120]
	v121 := vals[121]
	v122 := vals[122]
	v123 := vals[123]
	v124 := vals[124]
	v125 := vals[125]
	v126 := vals[126]
	v127 := vals[127]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v30 uint64
		if v28 != 0x0 {
			v30 = 1
		}
		v32 := (v28 - 0x1) & 0x7f
		var v33 uint64
		if v30 != 0 {
			v33 = v32
		} else {
			v33 = v28
		}
		switch v3 {
		case 0x0:
			var v1 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v1 = m0[addr] & 0xffff
			}
			v7 := (v1 - 0x1) & 0xffff
			v34 := v33
			v96 := v36
			v97 := v37
			v98 := v38
			v99 := v39
			v100 := v40
			v101 := v41
			v102 := v42
			v103 := v43
			v104 := v44
			v105 := v45
			v106 := v46
			v107 := v47
			v108 := v48
			v109 := v49
			v110 := v50
			v111 := v51
			v175 := v112
			v176 := v175
			v178 := v113
			v182 := v114
			v183 := v182
			v185 := v115
			v187 := v116
			v188 := v187
			v190 := v117
			v192 := v118
			v193 := v192
			v195 := v119
			v197 := v120
			v198 := v197
			v200 := v121
			v202 := v122
			v203 := v202
			v205 := v123
			v207 := v124
			v208 := v207
			v210 := v125
			v212 := v126
			v213 := v212
			v215 := v127
			v219 := v7
			n1 := v219
			n3 := v34
			n4 := v96
			n5 := v97
			n6 := v98
			n7 := v99
			n8 := v100
			n9 := v101
			n10 := v102
			n11 := v103
			n12 := v104
			n13 := v105
			n14 := v106
			n15 := v107
			n16 := v108
			n17 := v109
			n18 := v110
			n19 := v111
			n20 := v176
			n21 := v178
			n22 := v183
			n23 := v185
			n24 := v188
			n25 := v190
			n26 := v193
			n27 := v195
			n28 := v198
			n29 := v200
			n30 := v203
			n31 := v205
			n32 := v208
			n33 := v210
			n34 := v213
			n35 := v215
			v3 = 0x1
			v4 = n1
			v16 = 0xf
			v28 = n3
			v36 = n4
			v37 = n5
			v38 = n6
			v39 = n7
			v40 = n8
			v41 = n9
			v42 = n10
			v43 = n11
			v44 = n12
			v45 = n13
			v46 = n14
			v47 = n15
			v48 = n16
			v49 = n17
			v50 = n18
			v51 = n19
			v112 = n20
			v113 = n21
			v114 = n22
			v115 = n23
			v116 = n24
			v117 = n25
			v118 = n26
			v119 = n27
			v120 = n28
			v121 = n29
			v122 = n30
			v123 = n31
			v124 = n32
			v125 = n33
			v126 = n34
			v127 = n35
		case 0x1:
			var v18 uint64
			if v16 != 0x0 {
				v18 = 1
			}
			v20 := (v16 - 0x1) & 0x1f
			var v21 uint64
			if v18 != 0 {
				v21 = v20
			} else {
				v21 = v16
			}
			var v25 uint64
			if v16 == 0x0 {
				v25 = 1
			}
			v22 := v21
			v26 := v25
			var v34 uint64
			if v26 != 0 {
				v34 = 0x3f
			} else {
				v34 = v33
			}
			v96 := v36
			v97 := v37
			v98 := v38
			v99 := v39
			v100 := v40
			v101 := v41
			v102 := v42
			v103 := v43
			v104 := v44
			v105 := v45
			v106 := v46
			v107 := v47
			v108 := v48
			v109 := v49
			v110 := v50
			v111 := v51
			v176 := v113
			v178 := v113
			v183 := v115
			v185 := v115
			v188 := v117
			v190 := v117
			v193 := v119
			v195 := v119
			v198 := v121
			v200 := v121
			v203 := v123
			v205 := v123
			v208 := v125
			v210 := v125
			v213 := v127
			v215 := v127
			v218 := v4
			v219 := v218
			var v227 uint64
			if v25 != 0 {
				v227 = 0x2
			} else {
				v227 = 0x1
			}
			v228 := v227
			v229 := v228
			n0 := v229
			n1 := v219
			n2 := v22
			n3 := v34
			n4 := v96
			n5 := v97
			n6 := v98
			n7 := v99
			n8 := v100
			n9 := v101
			n10 := v102
			n11 := v103
			n12 := v104
			n13 := v105
			n14 := v106
			n15 := v107
			n16 := v108
			n17 := v109
			n18 := v110
			n19 := v111
			n20 := v176
			n21 := v178
			n22 := v183
			n23 := v185
			n24 := v188
			n25 := v190
			n26 := v193
			n27 := v195
			n28 := v198
			n29 := v200
			n30 := v203
			n31 := v205
			n32 := v208
			n33 := v210
			n34 := v213
			n35 := v215
			v3 = n0
			v4 = n1
			v16 = n2
			v28 = n3
			v36 = n4
			v37 = n5
			v38 = n6
			v39 = n7
			v40 = n8
			v41 = n9
			v42 = n10
			v43 = n11
			v44 = n12
			v45 = n13
			v46 = n14
			v47 = n15
			v48 = n16
			v49 = n17
			v50 = n18
			v51 = n19
			v112 = n20
			v113 = n21
			v114 = n22
			v115 = n23
			v116 = n24
			v117 = n25
			v118 = n26
			v119 = n27
			v120 = n28
			v121 = n29
			v122 = n30
			v123 = n31
			v124 = n32
			v125 = n33
			v126 = n34
			v127 = n35
		case 0x2:
			var v1 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v1 = m0[addr] & 0xffff
			}
			v7 := (v1 - 0x1) & 0xffff
			v8 := (v7 - v4) & 0xffff
			var v18 uint64
			if v16 != 0x0 {
				v18 = 1
			}
			v20 := (v16 - 0x1) & 0x1f
			var v21 uint64
			if v18 != 0 {
				v21 = v20
			} else {
				v21 = v16
			}
			v35 := (0x3f - v28) & 0x7f
			v53 := (v37 >> 7)
			v55 := (v37 << 25) & 0xffffffff
			v56 := (v53 | v55)
			v58 := (v37 >> 18)
			v60 := (v37 << 14) & 0xffffffff
			v61 := (v58 | v60)
			v62 := (v56 ^ v61)
			v64 := (v37 >> 3)
			v65 := (v62 ^ v64)
			v67 := (v50 >> 17)
			v69 := (v50 << 15) & 0xffffffff
			v70 := (v67 | v69)
			v72 := (v50 >> 19)
			v74 := (v50 << 13) & 0xffffffff
			v75 := (v72 | v74)
			v76 := (v70 ^ v75)
			v78 := (v50 >> 10)
			v79 := (v76 ^ v78)
			v80 := (v79 + v45) & 0xffffffff
			v81 := (v80 + v65) & 0xffffffff
			v82 := (v81 + v36) & 0xffffffff
			v84 := (v8 << 4) & 0xffff
			v85 := v35
			v86 := (v84 + v85) & 0xffff
			v87 := (v86 + 0x1) & 0xffff
			v89 := v87 & 0x3ff
			var v90 uint64
			if addr := uint64(v89); addr < uint64(len(m0)) {
				v90 = m0[addr] & 0xffffffff
			}
			var v92 uint64
			if v35 < 0x10 {
				v92 = 1
			}
			var v93 uint64
			if v92 != 0 {
				v93 = v90
			} else {
				v93 = v82
			}
			v128 := v35 & 0x3f
			var v129 uint64
			if addr := uint64(v128); addr < uint64(len(m2)) {
				v129 = m2[addr] & 0xffffffff
			}
			v131 := (v120 >> 6)
			v133 := (v120 << 26) & 0xffffffff
			v134 := (v131 | v133)
			v136 := (v120 >> 11)
			v138 := (v120 << 21) & 0xffffffff
			v139 := (v136 | v138)
			v140 := (v134 ^ v139)
			v141 := (v120 >> 25)
			v142 := (v120 << 7) & 0xffffffff
			v143 := (v141 | v142)
			v144 := (v140 ^ v143)
			v145 := v120 & v122
			v146 := ^v120 & 0xffffffff
			v147 := v146 & v124
			v148 := (v145 ^ v147)
			v149 := (v126 + v144) & 0xffffffff
			v150 := (v149 + v148) & 0xffffffff
			v151 := (v150 + v129) & 0xffffffff
			v152 := (v151 + v93) & 0xffffffff
			v154 := (v112 >> 2)
			v156 := (v112 << 30) & 0xffffffff
			v157 := (v154 | v156)
			v158 := (v112 >> 13)
			v159 := (v112 << 19) & 0xffffffff
			v160 := (v158 | v159)
			v161 := (v157 ^ v160)
			v163 := (v112 >> 22)
			v164 := (v112 << 10) & 0xffffffff
			v165 := (v163 | v164)
			v166 := (v161 ^ v165)
			v167 := v112 & v114
			v168 := v112 & v116
			v169 := (v167 ^ v168)
			v170 := v114 & v116
			v171 := (v169 ^ v170)
			v172 := (v166 + v171) & 0xffffffff
			v173 := (v152 + v172) & 0xffffffff
			v174 := (v118 + v152) & 0xffffffff
			var v220 uint64
			if v28 == 0x0 {
				v220 = 1
			}
			v22 := v21
			v34 := v33
			v96 := v37
			v97 := v38
			v98 := v39
			v99 := v40
			v100 := v41
			v101 := v42
			v102 := v43
			v103 := v44
			v104 := v45
			v105 := v46
			v106 := v47
			v107 := v48
			v108 := v49
			v109 := v50
			v110 := v51
			v111 := v93
			v175 := v173
			v176 := v175
			v178 := v113
			v182 := v112
			v183 := v182
			v185 := v115
			v187 := v114
			v188 := v187
			v190 := v117
			v192 := v116
			v193 := v192
			v195 := v119
			v197 := v174
			v198 := v197
			v200 := v121
			v202 := v120
			v203 := v202
			v205 := v123
			v207 := v122
			v208 := v207
			v210 := v125
			v212 := v124
			v213 := v212
			v215 := v127
			v218 := v4
			v219 := v218
			var v225 uint64
			if v220 != 0 {
				v225 = 0x3
			} else {
				v225 = 0x2
			}
			v226 := v225
			v228 := v226
			v229 := v228
			n0 := v229
			n1 := v219
			n2 := v22
			n3 := v34
			n4 := v96
			n5 := v97
			n6 := v98
			n7 := v99
			n8 := v100
			n9 := v101
			n10 := v102
			n11 := v103
			n12 := v104
			n13 := v105
			n14 := v106
			n15 := v107
			n16 := v108
			n17 := v109
			n18 := v110
			n19 := v111
			n20 := v176
			n21 := v178
			n22 := v183
			n23 := v185
			n24 := v188
			n25 := v190
			n26 := v193
			n27 := v195
			n28 := v198
			n29 := v200
			n30 := v203
			n31 := v205
			n32 := v208
			n33 := v210
			n34 := v213
			n35 := v215
			v3 = n0
			v4 = n1
			v16 = n2
			v28 = n3
			v36 = n4
			v37 = n5
			v38 = n6
			v39 = n7
			v40 = n8
			v41 = n9
			v42 = n10
			v43 = n11
			v44 = n12
			v45 = n13
			v46 = n14
			v47 = n15
			v48 = n16
			v49 = n17
			v50 = n18
			v51 = n19
			v112 = n20
			v113 = n21
			v114 = n22
			v115 = n23
			v116 = n24
			v117 = n25
			v118 = n26
			v119 = n27
			v120 = n28
			v121 = n29
			v122 = n30
			v123 = n31
			v124 = n32
			v125 = n33
			v126 = n34
			v127 = n35
		case 0x3:
			var v6 uint64
			if v4 != 0x0 {
				v6 = 1
			}
			var v18 uint64
			if v16 != 0x0 {
				v18 = 1
			}
			v20 := (v16 - 0x1) & 0x1f
			var v21 uint64
			if v18 != 0 {
				v21 = v20
			} else {
				v21 = v16
			}
			v177 := (v113 + v112) & 0xffffffff
			v184 := (v115 + v114) & 0xffffffff
			v189 := (v117 + v116) & 0xffffffff
			v194 := (v119 + v118) & 0xffffffff
			v199 := (v121 + v120) & 0xffffffff
			v204 := (v123 + v122) & 0xffffffff
			v209 := (v125 + v124) & 0xffffffff
			v214 := (v127 + v126) & 0xffffffff
			v217 := (v4 - 0x1) & 0xffff
			var v223 uint64
			if v6 != 0 {
				v223 = 0x1
			} else {
				v223 = 0x4
			}
			v13 := v6
			v14 := v13
			var v22 uint64
			if v14 != 0 {
				v22 = 0xf
			} else {
				v22 = v21
			}
			v34 := v33
			v96 := v36
			v97 := v37
			v98 := v38
			v99 := v39
			v100 := v40
			v101 := v41
			v102 := v42
			v103 := v43
			v104 := v44
			v105 := v45
			v106 := v46
			v107 := v47
			v108 := v48
			v109 := v49
			v110 := v50
			v111 := v51
			v175 := v112
			v176 := v175
			v178 := v177
			v182 := v114
			v183 := v182
			v185 := v184
			v187 := v116
			v188 := v187
			v190 := v189
			v192 := v118
			v193 := v192
			v195 := v194
			v197 := v120
			v198 := v197
			v200 := v199
			v202 := v122
			v203 := v202
			v205 := v204
			v207 := v124
			v208 := v207
			v210 := v209
			v212 := v126
			v213 := v212
			v215 := v214
			var v218 uint64
			if v13 != 0 {
				v218 = v217
			} else {
				v218 = v4
			}
			v219 := v218
			v224 := v223
			v226 := v224
			v228 := v226
			v229 := v228
			n0 := v229
			n1 := v219
			n2 := v22
			n3 := v34
			n4 := v96
			n5 := v97
			n6 := v98
			n7 := v99
			n8 := v100
			n9 := v101
			n10 := v102
			n11 := v103
			n12 := v104
			n13 := v105
			n14 := v106
			n15 := v107
			n16 := v108
			n17 := v109
			n18 := v110
			n19 := v111
			n20 := v176
			n21 := v178
			n22 := v183
			n23 := v185
			n24 := v188
			n25 := v190
			n26 := v193
			n27 := v195
			n28 := v198
			n29 := v200
			n30 := v203
			n31 := v205
			n32 := v208
			n33 := v210
			n34 := v213
			n35 := v215
			v3 = n0
			v4 = n1
			v16 = n2
			v28 = n3
			v36 = n4
			v37 = n5
			v38 = n6
			v39 = n7
			v40 = n8
			v41 = n9
			v42 = n10
			v43 = n11
			v44 = n12
			v45 = n13
			v46 = n14
			v47 = n15
			v48 = n16
			v49 = n17
			v50 = n18
			v51 = n19
			v112 = n20
			v113 = n21
			v114 = n22
			v115 = n23
			v116 = n24
			v117 = n25
			v118 = n26
			v119 = n27
			v120 = n28
			v121 = n29
			v122 = n30
			v123 = n31
			v124 = n32
			v125 = n33
			v126 = n34
			v127 = n35
		case 0x4:
			var v18 uint64
			if v16 != 0x0 {
				v18 = 1
			}
			v20 := (v16 - 0x1) & 0x1f
			var v21 uint64
			if v18 != 0 {
				v21 = v20
			} else {
				v21 = v16
			}
			v22 := v21
			v34 := v33
			v96 := v36
			v97 := v37
			v98 := v38
			v99 := v39
			v100 := v40
			v101 := v41
			v102 := v42
			v103 := v43
			v104 := v44
			v105 := v45
			v106 := v46
			v107 := v47
			v108 := v48
			v109 := v49
			v110 := v50
			v111 := v51
			v175 := v112
			v176 := v175
			v178 := v113
			v182 := v114
			v183 := v182
			v185 := v115
			v187 := v116
			v188 := v187
			v190 := v117
			v192 := v118
			v193 := v192
			v195 := v119
			v197 := v120
			v198 := v197
			v200 := v121
			v202 := v122
			v203 := v202
			v205 := v123
			v207 := v124
			v208 := v207
			v210 := v125
			v212 := v126
			v213 := v212
			v215 := v127
			v218 := v4
			v219 := v218
			if addr := uint64(0x0); addr < uint64(len(m1)) {
				m1[addr] = v113
			}
			if addr := uint64(0x1); addr < uint64(len(m1)) {
				m1[addr] = v115
			}
			if addr := uint64(0x2); addr < uint64(len(m1)) {
				m1[addr] = v117
			}
			if addr := uint64(0x3); addr < uint64(len(m1)) {
				m1[addr] = v119
			}
			if addr := uint64(0x4); addr < uint64(len(m1)) {
				m1[addr] = v121
			}
			if addr := uint64(0x5); addr < uint64(len(m1)) {
				m1[addr] = v123
			}
			if addr := uint64(0x6); addr < uint64(len(m1)) {
				m1[addr] = v125
			}
			if addr := uint64(0x7); addr < uint64(len(m1)) {
				m1[addr] = v127
			}
			n1 := v219
			n2 := v22
			n3 := v34
			n4 := v96
			n5 := v97
			n6 := v98
			n7 := v99
			n8 := v100
			n9 := v101
			n10 := v102
			n11 := v103
			n12 := v104
			n13 := v105
			n14 := v106
			n15 := v107
			n16 := v108
			n17 := v109
			n18 := v110
			n19 := v111
			n20 := v176
			n21 := v178
			n22 := v183
			n23 := v185
			n24 := v188
			n25 := v190
			n26 := v193
			n27 := v195
			n28 := v198
			n29 := v200
			n30 := v203
			n31 := v205
			n32 := v208
			n33 := v210
			n34 := v213
			n35 := v215
			v3 = 0x5
			v4 = n1
			v16 = n2
			v28 = n3
			v36 = n4
			v37 = n5
			v38 = n6
			v39 = n7
			v40 = n8
			v41 = n9
			v42 = n10
			v43 = n11
			v44 = n12
			v45 = n13
			v46 = n14
			v47 = n15
			v48 = n16
			v49 = n17
			v50 = n18
			v51 = n19
			v112 = n20
			v113 = n21
			v114 = n22
			v115 = n23
			v116 = n24
			v117 = n25
			v118 = n26
			v119 = n27
			v120 = n28
			v121 = n29
			v122 = n30
			v123 = n31
			v124 = n32
			v125 = n33
			v126 = n34
			v127 = n35
		case 0x5:
			break loop
		default:
			var v1 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v1 = m0[addr] & 0xffff
			}
			var v6 uint64
			if v4 != 0x0 {
				v6 = 1
			}
			v7 := (v1 - 0x1) & 0xffff
			v8 := (v7 - v4) & 0xffff
			var v18 uint64
			if v16 != 0x0 {
				v18 = 1
			}
			v20 := (v16 - 0x1) & 0x1f
			var v21 uint64
			if v18 != 0 {
				v21 = v20
			} else {
				v21 = v16
			}
			var v25 uint64
			if v16 == 0x0 {
				v25 = 1
			}
			v35 := (0x3f - v28) & 0x7f
			v53 := (v37 >> 7)
			v55 := (v37 << 25) & 0xffffffff
			v56 := (v53 | v55)
			v58 := (v37 >> 18)
			v60 := (v37 << 14) & 0xffffffff
			v61 := (v58 | v60)
			v62 := (v56 ^ v61)
			v64 := (v37 >> 3)
			v65 := (v62 ^ v64)
			v67 := (v50 >> 17)
			v69 := (v50 << 15) & 0xffffffff
			v70 := (v67 | v69)
			v72 := (v50 >> 19)
			v74 := (v50 << 13) & 0xffffffff
			v75 := (v72 | v74)
			v76 := (v70 ^ v75)
			v78 := (v50 >> 10)
			v79 := (v76 ^ v78)
			v80 := (v79 + v45) & 0xffffffff
			v81 := (v80 + v65) & 0xffffffff
			v82 := (v81 + v36) & 0xffffffff
			v84 := (v8 << 4) & 0xffff
			v85 := v35
			v86 := (v84 + v85) & 0xffff
			v87 := (v86 + 0x1) & 0xffff
			v89 := v87 & 0x3ff
			var v90 uint64
			if addr := uint64(v89); addr < uint64(len(m0)) {
				v90 = m0[addr] & 0xffffffff
			}
			var v92 uint64
			if v35 < 0x10 {
				v92 = 1
			}
			var v93 uint64
			if v92 != 0 {
				v93 = v90
			} else {
				v93 = v82
			}
			v128 := v35 & 0x3f
			var v129 uint64
			if addr := uint64(v128); addr < uint64(len(m2)) {
				v129 = m2[addr] & 0xffffffff
			}
			v131 := (v120 >> 6)
			v133 := (v120 << 26) & 0xffffffff
			v134 := (v131 | v133)
			v136 := (v120 >> 11)
			v138 := (v120 << 21) & 0xffffffff
			v139 := (v136 | v138)
			v140 := (v134 ^ v139)
			v141 := (v120 >> 25)
			v142 := (v120 << 7) & 0xffffffff
			v143 := (v141 | v142)
			v144 := (v140 ^ v143)
			v145 := v120 & v122
			v146 := ^v120 & 0xffffffff
			v147 := v146 & v124
			v148 := (v145 ^ v147)
			v149 := (v126 + v144) & 0xffffffff
			v150 := (v149 + v148) & 0xffffffff
			v151 := (v150 + v129) & 0xffffffff
			v152 := (v151 + v93) & 0xffffffff
			v154 := (v112 >> 2)
			v156 := (v112 << 30) & 0xffffffff
			v157 := (v154 | v156)
			v158 := (v112 >> 13)
			v159 := (v112 << 19) & 0xffffffff
			v160 := (v158 | v159)
			v161 := (v157 ^ v160)
			v163 := (v112 >> 22)
			v164 := (v112 << 10) & 0xffffffff
			v165 := (v163 | v164)
			v166 := (v161 ^ v165)
			v167 := v112 & v114
			v168 := v112 & v116
			v169 := (v167 ^ v168)
			v170 := v114 & v116
			v171 := (v169 ^ v170)
			v172 := (v166 + v171) & 0xffffffff
			v173 := (v152 + v172) & 0xffffffff
			v174 := (v118 + v152) & 0xffffffff
			v177 := (v113 + v112) & 0xffffffff
			v184 := (v115 + v114) & 0xffffffff
			v189 := (v117 + v116) & 0xffffffff
			v194 := (v119 + v118) & 0xffffffff
			v199 := (v121 + v120) & 0xffffffff
			v204 := (v123 + v122) & 0xffffffff
			v209 := (v125 + v124) & 0xffffffff
			v214 := (v127 + v126) & 0xffffffff
			v217 := (v4 - 0x1) & 0xffff
			var v220 uint64
			if v28 == 0x0 {
				v220 = 1
			}
			var v223 uint64
			if v6 != 0 {
				v223 = 0x1
			} else {
				v223 = 0x4
			}
			var v10 uint64
			if v3 == 0x0 {
				v10 = 1
			}
			var v12 uint64
			if v3 == 0x3 {
				v12 = 1
			}
			v13 := v12 & v6
			v14 := (v10 | v13)
			var v22 uint64
			if v14 != 0 {
				v22 = 0xf
			} else {
				v22 = v21
			}
			var v24 uint64
			if v3 == 0x1 {
				v24 = 1
			}
			v26 := v24 & v25
			var v34 uint64
			if v26 != 0 {
				v34 = 0x3f
			} else {
				v34 = v33
			}
			var v95 uint64
			if v3 == 0x2 {
				v95 = 1
			}
			var v96 uint64
			if v95 != 0 {
				v96 = v37
			} else {
				v96 = v36
			}
			var v97 uint64
			if v95 != 0 {
				v97 = v38
			} else {
				v97 = v37
			}
			var v98 uint64
			if v95 != 0 {
				v98 = v39
			} else {
				v98 = v38
			}
			var v99 uint64
			if v95 != 0 {
				v99 = v40
			} else {
				v99 = v39
			}
			var v100 uint64
			if v95 != 0 {
				v100 = v41
			} else {
				v100 = v40
			}
			var v101 uint64
			if v95 != 0 {
				v101 = v42
			} else {
				v101 = v41
			}
			var v102 uint64
			if v95 != 0 {
				v102 = v43
			} else {
				v102 = v42
			}
			var v103 uint64
			if v95 != 0 {
				v103 = v44
			} else {
				v103 = v43
			}
			var v104 uint64
			if v95 != 0 {
				v104 = v45
			} else {
				v104 = v44
			}
			var v105 uint64
			if v95 != 0 {
				v105 = v46
			} else {
				v105 = v45
			}
			var v106 uint64
			if v95 != 0 {
				v106 = v47
			} else {
				v106 = v46
			}
			var v107 uint64
			if v95 != 0 {
				v107 = v48
			} else {
				v107 = v47
			}
			var v108 uint64
			if v95 != 0 {
				v108 = v49
			} else {
				v108 = v48
			}
			var v109 uint64
			if v95 != 0 {
				v109 = v50
			} else {
				v109 = v49
			}
			var v110 uint64
			if v95 != 0 {
				v110 = v51
			} else {
				v110 = v50
			}
			var v111 uint64
			if v95 != 0 {
				v111 = v93
			} else {
				v111 = v51
			}
			var v175 uint64
			if v95 != 0 {
				v175 = v173
			} else {
				v175 = v112
			}
			var v176 uint64
			if v24 != 0 {
				v176 = v113
			} else {
				v176 = v175
			}
			var v178 uint64
			if v12 != 0 {
				v178 = v177
			} else {
				v178 = v113
			}
			var v181 uint64
			if v3 == 0x4 {
				v181 = 1
			}
			var v182 uint64
			if v95 != 0 {
				v182 = v112
			} else {
				v182 = v114
			}
			var v183 uint64
			if v24 != 0 {
				v183 = v115
			} else {
				v183 = v182
			}
			var v185 uint64
			if v12 != 0 {
				v185 = v184
			} else {
				v185 = v115
			}
			var v187 uint64
			if v95 != 0 {
				v187 = v114
			} else {
				v187 = v116
			}
			var v188 uint64
			if v24 != 0 {
				v188 = v117
			} else {
				v188 = v187
			}
			var v190 uint64
			if v12 != 0 {
				v190 = v189
			} else {
				v190 = v117
			}
			var v192 uint64
			if v95 != 0 {
				v192 = v116
			} else {
				v192 = v118
			}
			var v193 uint64
			if v24 != 0 {
				v193 = v119
			} else {
				v193 = v192
			}
			var v195 uint64
			if v12 != 0 {
				v195 = v194
			} else {
				v195 = v119
			}
			var v197 uint64
			if v95 != 0 {
				v197 = v174
			} else {
				v197 = v120
			}
			var v198 uint64
			if v24 != 0 {
				v198 = v121
			} else {
				v198 = v197
			}
			var v200 uint64
			if v12 != 0 {
				v200 = v199
			} else {
				v200 = v121
			}
			var v202 uint64
			if v95 != 0 {
				v202 = v120
			} else {
				v202 = v122
			}
			var v203 uint64
			if v24 != 0 {
				v203 = v123
			} else {
				v203 = v202
			}
			var v205 uint64
			if v12 != 0 {
				v205 = v204
			} else {
				v205 = v123
			}
			var v207 uint64
			if v95 != 0 {
				v207 = v122
			} else {
				v207 = v124
			}
			var v208 uint64
			if v24 != 0 {
				v208 = v125
			} else {
				v208 = v207
			}
			var v210 uint64
			if v12 != 0 {
				v210 = v209
			} else {
				v210 = v125
			}
			var v212 uint64
			if v95 != 0 {
				v212 = v124
			} else {
				v212 = v126
			}
			var v213 uint64
			if v24 != 0 {
				v213 = v127
			} else {
				v213 = v212
			}
			var v215 uint64
			if v12 != 0 {
				v215 = v214
			} else {
				v215 = v127
			}
			var v218 uint64
			if v13 != 0 {
				v218 = v217
			} else {
				v218 = v4
			}
			var v219 uint64
			if v10 != 0 {
				v219 = v7
			} else {
				v219 = v218
			}
			var v222 uint64
			if v181 != 0 {
				v222 = 0x5
			} else {
				v222 = v3
			}
			var v224 uint64
			if v12 != 0 {
				v224 = v223
			} else {
				v224 = v222
			}
			var v225 uint64
			if v220 != 0 {
				v225 = 0x3
			} else {
				v225 = v3
			}
			var v226 uint64
			if v95 != 0 {
				v226 = v225
			} else {
				v226 = v224
			}
			var v227 uint64
			if v25 != 0 {
				v227 = 0x2
			} else {
				v227 = v3
			}
			var v228 uint64
			if v24 != 0 {
				v228 = v227
			} else {
				v228 = v226
			}
			var v229 uint64
			if v10 != 0 {
				v229 = 0x1
			} else {
				v229 = v228
			}
			var v230 uint64
			if v3 == 0x5 {
				v230 = 1
			}
			if v230 != 0 {
				break loop
			}
			if v181 != 0 {
				if addr := uint64(0x0); addr < uint64(len(m1)) {
					m1[addr] = v113
				}
			}
			if v181 != 0 {
				if addr := uint64(0x1); addr < uint64(len(m1)) {
					m1[addr] = v115
				}
			}
			if v181 != 0 {
				if addr := uint64(0x2); addr < uint64(len(m1)) {
					m1[addr] = v117
				}
			}
			if v181 != 0 {
				if addr := uint64(0x3); addr < uint64(len(m1)) {
					m1[addr] = v119
				}
			}
			if v181 != 0 {
				if addr := uint64(0x4); addr < uint64(len(m1)) {
					m1[addr] = v121
				}
			}
			if v181 != 0 {
				if addr := uint64(0x5); addr < uint64(len(m1)) {
					m1[addr] = v123
				}
			}
			if v181 != 0 {
				if addr := uint64(0x6); addr < uint64(len(m1)) {
					m1[addr] = v125
				}
			}
			if v181 != 0 {
				if addr := uint64(0x7); addr < uint64(len(m1)) {
					m1[addr] = v127
				}
			}
			n0 := v229
			n1 := v219
			n2 := v22
			n3 := v34
			n4 := v96
			n5 := v97
			n6 := v98
			n7 := v99
			n8 := v100
			n9 := v101
			n10 := v102
			n11 := v103
			n12 := v104
			n13 := v105
			n14 := v106
			n15 := v107
			n16 := v108
			n17 := v109
			n18 := v110
			n19 := v111
			n20 := v176
			n21 := v178
			n22 := v183
			n23 := v185
			n24 := v188
			n25 := v190
			n26 := v193
			n27 := v195
			n28 := v198
			n29 := v200
			n30 := v203
			n31 := v205
			n32 := v208
			n33 := v210
			n34 := v213
			n35 := v215
			v3 = n0
			v4 = n1
			v16 = n2
			v28 = n3
			v36 = n4
			v37 = n5
			v38 = n6
			v39 = n7
			v40 = n8
			v41 = n9
			v42 = n10
			v43 = n11
			v44 = n12
			v45 = n13
			v46 = n14
			v47 = n15
			v48 = n16
			v49 = n17
			v50 = n18
			v51 = n19
			v112 = n20
			v113 = n21
			v114 = n22
			v115 = n23
			v116 = n24
			v117 = n25
			v118 = n26
			v119 = n27
			v120 = n28
			v121 = n29
			v122 = n30
			v123 = n31
			v124 = n32
			v125 = n33
			v126 = n34
			v127 = n35
		}
	}
	vals[3] = v3
	vals[4] = v4
	vals[16] = v16
	vals[28] = v28
	vals[36] = v36
	vals[37] = v37
	vals[38] = v38
	vals[39] = v39
	vals[40] = v40
	vals[41] = v41
	vals[42] = v42
	vals[43] = v43
	vals[44] = v44
	vals[45] = v45
	vals[46] = v46
	vals[47] = v47
	vals[48] = v48
	vals[49] = v49
	vals[50] = v50
	vals[51] = v51
	vals[112] = v112
	vals[113] = v113
	vals[114] = v114
	vals[115] = v115
	vals[116] = v116
	vals[117] = v117
	vals[118] = v118
	vals[119] = v119
	vals[120] = v120
	vals[121] = v121
	vals[122] = v122
	vals[123] = v123
	vals[124] = v124
	vals[125] = v125
	vals[126] = v126
	vals[127] = v127
	var v1 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v1 = m0[addr] & 0xffff
	}
	vals[1] = v1
	var v6 uint64
	if v4 != 0x0 {
		v6 = 1
	}
	vals[6] = v6
	v7 := (v1 - 0x1) & 0xffff
	vals[7] = v7
	v8 := (v7 - v4) & 0xffff
	vals[8] = v8
	var v18 uint64
	if v16 != 0x0 {
		v18 = 1
	}
	vals[18] = v18
	v20 := (v16 - 0x1) & 0x1f
	vals[20] = v20
	var v21 uint64
	if v18 != 0 {
		v21 = v20
	} else {
		v21 = v16
	}
	vals[21] = v21
	var v25 uint64
	if v16 == 0x0 {
		v25 = 1
	}
	vals[25] = v25
	var v30 uint64
	if v28 != 0x0 {
		v30 = 1
	}
	vals[30] = v30
	v32 := (v28 - 0x1) & 0x7f
	vals[32] = v32
	var v33 uint64
	if v30 != 0 {
		v33 = v32
	} else {
		v33 = v28
	}
	vals[33] = v33
	v35 := (0x3f - v28) & 0x7f
	vals[35] = v35
	v53 := (v37 >> 7)
	vals[53] = v53
	v55 := (v37 << 25) & 0xffffffff
	vals[55] = v55
	v56 := (v53 | v55)
	vals[56] = v56
	v58 := (v37 >> 18)
	vals[58] = v58
	v60 := (v37 << 14) & 0xffffffff
	vals[60] = v60
	v61 := (v58 | v60)
	vals[61] = v61
	v62 := (v56 ^ v61)
	vals[62] = v62
	v64 := (v37 >> 3)
	vals[64] = v64
	v65 := (v62 ^ v64)
	vals[65] = v65
	v67 := (v50 >> 17)
	vals[67] = v67
	v69 := (v50 << 15) & 0xffffffff
	vals[69] = v69
	v70 := (v67 | v69)
	vals[70] = v70
	v72 := (v50 >> 19)
	vals[72] = v72
	v74 := (v50 << 13) & 0xffffffff
	vals[74] = v74
	v75 := (v72 | v74)
	vals[75] = v75
	v76 := (v70 ^ v75)
	vals[76] = v76
	v78 := (v50 >> 10)
	vals[78] = v78
	v79 := (v76 ^ v78)
	vals[79] = v79
	v80 := (v79 + v45) & 0xffffffff
	vals[80] = v80
	v81 := (v80 + v65) & 0xffffffff
	vals[81] = v81
	v82 := (v81 + v36) & 0xffffffff
	vals[82] = v82
	v84 := (v8 << 4) & 0xffff
	vals[84] = v84
	v85 := v35
	vals[85] = v85
	v86 := (v84 + v85) & 0xffff
	vals[86] = v86
	v87 := (v86 + 0x1) & 0xffff
	vals[87] = v87
	v89 := v87 & 0x3ff
	vals[89] = v89
	var v90 uint64
	if addr := uint64(v89); addr < uint64(len(m0)) {
		v90 = m0[addr] & 0xffffffff
	}
	vals[90] = v90
	var v92 uint64
	if v35 < 0x10 {
		v92 = 1
	}
	vals[92] = v92
	var v93 uint64
	if v92 != 0 {
		v93 = v90
	} else {
		v93 = v82
	}
	vals[93] = v93
	v128 := v35 & 0x3f
	vals[128] = v128
	var v129 uint64
	if addr := uint64(v128); addr < uint64(len(m2)) {
		v129 = m2[addr] & 0xffffffff
	}
	vals[129] = v129
	v131 := (v120 >> 6)
	vals[131] = v131
	v133 := (v120 << 26) & 0xffffffff
	vals[133] = v133
	v134 := (v131 | v133)
	vals[134] = v134
	v136 := (v120 >> 11)
	vals[136] = v136
	v138 := (v120 << 21) & 0xffffffff
	vals[138] = v138
	v139 := (v136 | v138)
	vals[139] = v139
	v140 := (v134 ^ v139)
	vals[140] = v140
	v141 := (v120 >> 25)
	vals[141] = v141
	v142 := (v120 << 7) & 0xffffffff
	vals[142] = v142
	v143 := (v141 | v142)
	vals[143] = v143
	v144 := (v140 ^ v143)
	vals[144] = v144
	v145 := v120 & v122
	vals[145] = v145
	v146 := ^v120 & 0xffffffff
	vals[146] = v146
	v147 := v146 & v124
	vals[147] = v147
	v148 := (v145 ^ v147)
	vals[148] = v148
	v149 := (v126 + v144) & 0xffffffff
	vals[149] = v149
	v150 := (v149 + v148) & 0xffffffff
	vals[150] = v150
	v151 := (v150 + v129) & 0xffffffff
	vals[151] = v151
	v152 := (v151 + v93) & 0xffffffff
	vals[152] = v152
	v154 := (v112 >> 2)
	vals[154] = v154
	v156 := (v112 << 30) & 0xffffffff
	vals[156] = v156
	v157 := (v154 | v156)
	vals[157] = v157
	v158 := (v112 >> 13)
	vals[158] = v158
	v159 := (v112 << 19) & 0xffffffff
	vals[159] = v159
	v160 := (v158 | v159)
	vals[160] = v160
	v161 := (v157 ^ v160)
	vals[161] = v161
	v163 := (v112 >> 22)
	vals[163] = v163
	v164 := (v112 << 10) & 0xffffffff
	vals[164] = v164
	v165 := (v163 | v164)
	vals[165] = v165
	v166 := (v161 ^ v165)
	vals[166] = v166
	v167 := v112 & v114
	vals[167] = v167
	v168 := v112 & v116
	vals[168] = v168
	v169 := (v167 ^ v168)
	vals[169] = v169
	v170 := v114 & v116
	vals[170] = v170
	v171 := (v169 ^ v170)
	vals[171] = v171
	v172 := (v166 + v171) & 0xffffffff
	vals[172] = v172
	v173 := (v152 + v172) & 0xffffffff
	vals[173] = v173
	v174 := (v118 + v152) & 0xffffffff
	vals[174] = v174
	v177 := (v113 + v112) & 0xffffffff
	vals[177] = v177
	v184 := (v115 + v114) & 0xffffffff
	vals[184] = v184
	v189 := (v117 + v116) & 0xffffffff
	vals[189] = v189
	v194 := (v119 + v118) & 0xffffffff
	vals[194] = v194
	v199 := (v121 + v120) & 0xffffffff
	vals[199] = v199
	v204 := (v123 + v122) & 0xffffffff
	vals[204] = v204
	v209 := (v125 + v124) & 0xffffffff
	vals[209] = v209
	v214 := (v127 + v126) & 0xffffffff
	vals[214] = v214
	v217 := (v4 - 0x1) & 0xffff
	vals[217] = v217
	var v220 uint64
	if v28 == 0x0 {
		v220 = 1
	}
	vals[220] = v220
	var v223 uint64
	if v6 != 0 {
		v223 = 0x1
	} else {
		v223 = 0x4
	}
	vals[223] = v223
	switch v3 {
	case 0x0:
		vals[10] = 0x1
		vals[12] = 0x0
		vals[13] = 0x0
		vals[14] = 0x1
		vals[22] = 0xf
		vals[24] = 0x0
		vals[26] = 0x0
		v34 := v33
		vals[34] = v34
		vals[95] = 0x0
		v96 := v36
		vals[96] = v96
		v97 := v37
		vals[97] = v97
		v98 := v38
		vals[98] = v98
		v99 := v39
		vals[99] = v99
		v100 := v40
		vals[100] = v100
		v101 := v41
		vals[101] = v101
		v102 := v42
		vals[102] = v102
		v103 := v43
		vals[103] = v103
		v104 := v44
		vals[104] = v104
		v105 := v45
		vals[105] = v105
		v106 := v46
		vals[106] = v106
		v107 := v47
		vals[107] = v107
		v108 := v48
		vals[108] = v108
		v109 := v49
		vals[109] = v109
		v110 := v50
		vals[110] = v110
		v111 := v51
		vals[111] = v111
		v175 := v112
		vals[175] = v175
		v176 := v175
		vals[176] = v176
		v178 := v113
		vals[178] = v178
		vals[181] = 0x0
		v182 := v114
		vals[182] = v182
		v183 := v182
		vals[183] = v183
		v185 := v115
		vals[185] = v185
		v187 := v116
		vals[187] = v187
		v188 := v187
		vals[188] = v188
		v190 := v117
		vals[190] = v190
		v192 := v118
		vals[192] = v192
		v193 := v192
		vals[193] = v193
		v195 := v119
		vals[195] = v195
		v197 := v120
		vals[197] = v197
		v198 := v197
		vals[198] = v198
		v200 := v121
		vals[200] = v200
		v202 := v122
		vals[202] = v202
		v203 := v202
		vals[203] = v203
		v205 := v123
		vals[205] = v205
		v207 := v124
		vals[207] = v207
		v208 := v207
		vals[208] = v208
		v210 := v125
		vals[210] = v210
		v212 := v126
		vals[212] = v212
		v213 := v212
		vals[213] = v213
		v215 := v127
		vals[215] = v215
		v218 := v4
		vals[218] = v218
		v219 := v7
		vals[219] = v219
		vals[222] = 0x0
		vals[224] = 0x0
		var v225 uint64
		if v220 != 0 {
			v225 = 0x3
		} else {
			v225 = 0x0
		}
		vals[225] = v225
		vals[226] = 0x0
		var v227 uint64
		if v25 != 0 {
			v227 = 0x2
		} else {
			v227 = 0x0
		}
		vals[227] = v227
		vals[228] = 0x0
		vals[229] = 0x1
		vals[230] = 0x0
	case 0x1:
		vals[10] = 0x0
		vals[12] = 0x0
		vals[13] = 0x0
		vals[14] = 0x0
		v22 := v21
		vals[22] = v22
		vals[24] = 0x1
		v26 := v25
		vals[26] = v26
		var v34 uint64
		if v26 != 0 {
			v34 = 0x3f
		} else {
			v34 = v33
		}
		vals[34] = v34
		vals[95] = 0x0
		v96 := v36
		vals[96] = v96
		v97 := v37
		vals[97] = v97
		v98 := v38
		vals[98] = v98
		v99 := v39
		vals[99] = v99
		v100 := v40
		vals[100] = v100
		v101 := v41
		vals[101] = v101
		v102 := v42
		vals[102] = v102
		v103 := v43
		vals[103] = v103
		v104 := v44
		vals[104] = v104
		v105 := v45
		vals[105] = v105
		v106 := v46
		vals[106] = v106
		v107 := v47
		vals[107] = v107
		v108 := v48
		vals[108] = v108
		v109 := v49
		vals[109] = v109
		v110 := v50
		vals[110] = v110
		v111 := v51
		vals[111] = v111
		v175 := v112
		vals[175] = v175
		v176 := v113
		vals[176] = v176
		v178 := v113
		vals[178] = v178
		vals[181] = 0x0
		v182 := v114
		vals[182] = v182
		v183 := v115
		vals[183] = v183
		v185 := v115
		vals[185] = v185
		v187 := v116
		vals[187] = v187
		v188 := v117
		vals[188] = v188
		v190 := v117
		vals[190] = v190
		v192 := v118
		vals[192] = v192
		v193 := v119
		vals[193] = v193
		v195 := v119
		vals[195] = v195
		v197 := v120
		vals[197] = v197
		v198 := v121
		vals[198] = v198
		v200 := v121
		vals[200] = v200
		v202 := v122
		vals[202] = v202
		v203 := v123
		vals[203] = v203
		v205 := v123
		vals[205] = v205
		v207 := v124
		vals[207] = v207
		v208 := v125
		vals[208] = v208
		v210 := v125
		vals[210] = v210
		v212 := v126
		vals[212] = v212
		v213 := v127
		vals[213] = v213
		v215 := v127
		vals[215] = v215
		v218 := v4
		vals[218] = v218
		v219 := v218
		vals[219] = v219
		vals[222] = 0x1
		vals[224] = 0x1
		var v225 uint64
		if v220 != 0 {
			v225 = 0x3
		} else {
			v225 = 0x1
		}
		vals[225] = v225
		vals[226] = 0x1
		var v227 uint64
		if v25 != 0 {
			v227 = 0x2
		} else {
			v227 = 0x1
		}
		vals[227] = v227
		v228 := v227
		vals[228] = v228
		v229 := v228
		vals[229] = v229
		vals[230] = 0x0
	case 0x2:
		vals[10] = 0x0
		vals[12] = 0x0
		vals[13] = 0x0
		vals[14] = 0x0
		v22 := v21
		vals[22] = v22
		vals[24] = 0x0
		vals[26] = 0x0
		v34 := v33
		vals[34] = v34
		vals[95] = 0x1
		v96 := v37
		vals[96] = v96
		v97 := v38
		vals[97] = v97
		v98 := v39
		vals[98] = v98
		v99 := v40
		vals[99] = v99
		v100 := v41
		vals[100] = v100
		v101 := v42
		vals[101] = v101
		v102 := v43
		vals[102] = v102
		v103 := v44
		vals[103] = v103
		v104 := v45
		vals[104] = v104
		v105 := v46
		vals[105] = v105
		v106 := v47
		vals[106] = v106
		v107 := v48
		vals[107] = v107
		v108 := v49
		vals[108] = v108
		v109 := v50
		vals[109] = v109
		v110 := v51
		vals[110] = v110
		v111 := v93
		vals[111] = v111
		v175 := v173
		vals[175] = v175
		v176 := v175
		vals[176] = v176
		v178 := v113
		vals[178] = v178
		vals[181] = 0x0
		v182 := v112
		vals[182] = v182
		v183 := v182
		vals[183] = v183
		v185 := v115
		vals[185] = v185
		v187 := v114
		vals[187] = v187
		v188 := v187
		vals[188] = v188
		v190 := v117
		vals[190] = v190
		v192 := v116
		vals[192] = v192
		v193 := v192
		vals[193] = v193
		v195 := v119
		vals[195] = v195
		v197 := v174
		vals[197] = v197
		v198 := v197
		vals[198] = v198
		v200 := v121
		vals[200] = v200
		v202 := v120
		vals[202] = v202
		v203 := v202
		vals[203] = v203
		v205 := v123
		vals[205] = v205
		v207 := v122
		vals[207] = v207
		v208 := v207
		vals[208] = v208
		v210 := v125
		vals[210] = v210
		v212 := v124
		vals[212] = v212
		v213 := v212
		vals[213] = v213
		v215 := v127
		vals[215] = v215
		v218 := v4
		vals[218] = v218
		v219 := v218
		vals[219] = v219
		vals[222] = 0x2
		vals[224] = 0x2
		var v225 uint64
		if v220 != 0 {
			v225 = 0x3
		} else {
			v225 = 0x2
		}
		vals[225] = v225
		v226 := v225
		vals[226] = v226
		var v227 uint64
		if v25 != 0 {
			v227 = 0x2
		} else {
			v227 = 0x2
		}
		vals[227] = v227
		v228 := v226
		vals[228] = v228
		v229 := v228
		vals[229] = v229
		vals[230] = 0x0
	case 0x3:
		vals[10] = 0x0
		vals[12] = 0x1
		v13 := v6
		vals[13] = v13
		v14 := v13
		vals[14] = v14
		var v22 uint64
		if v14 != 0 {
			v22 = 0xf
		} else {
			v22 = v21
		}
		vals[22] = v22
		vals[24] = 0x0
		vals[26] = 0x0
		v34 := v33
		vals[34] = v34
		vals[95] = 0x0
		v96 := v36
		vals[96] = v96
		v97 := v37
		vals[97] = v97
		v98 := v38
		vals[98] = v98
		v99 := v39
		vals[99] = v99
		v100 := v40
		vals[100] = v100
		v101 := v41
		vals[101] = v101
		v102 := v42
		vals[102] = v102
		v103 := v43
		vals[103] = v103
		v104 := v44
		vals[104] = v104
		v105 := v45
		vals[105] = v105
		v106 := v46
		vals[106] = v106
		v107 := v47
		vals[107] = v107
		v108 := v48
		vals[108] = v108
		v109 := v49
		vals[109] = v109
		v110 := v50
		vals[110] = v110
		v111 := v51
		vals[111] = v111
		v175 := v112
		vals[175] = v175
		v176 := v175
		vals[176] = v176
		v178 := v177
		vals[178] = v178
		vals[181] = 0x0
		v182 := v114
		vals[182] = v182
		v183 := v182
		vals[183] = v183
		v185 := v184
		vals[185] = v185
		v187 := v116
		vals[187] = v187
		v188 := v187
		vals[188] = v188
		v190 := v189
		vals[190] = v190
		v192 := v118
		vals[192] = v192
		v193 := v192
		vals[193] = v193
		v195 := v194
		vals[195] = v195
		v197 := v120
		vals[197] = v197
		v198 := v197
		vals[198] = v198
		v200 := v199
		vals[200] = v200
		v202 := v122
		vals[202] = v202
		v203 := v202
		vals[203] = v203
		v205 := v204
		vals[205] = v205
		v207 := v124
		vals[207] = v207
		v208 := v207
		vals[208] = v208
		v210 := v209
		vals[210] = v210
		v212 := v126
		vals[212] = v212
		v213 := v212
		vals[213] = v213
		v215 := v214
		vals[215] = v215
		var v218 uint64
		if v13 != 0 {
			v218 = v217
		} else {
			v218 = v4
		}
		vals[218] = v218
		v219 := v218
		vals[219] = v219
		vals[222] = 0x3
		v224 := v223
		vals[224] = v224
		var v225 uint64
		if v220 != 0 {
			v225 = 0x3
		} else {
			v225 = 0x3
		}
		vals[225] = v225
		v226 := v224
		vals[226] = v226
		var v227 uint64
		if v25 != 0 {
			v227 = 0x2
		} else {
			v227 = 0x3
		}
		vals[227] = v227
		v228 := v226
		vals[228] = v228
		v229 := v228
		vals[229] = v229
		vals[230] = 0x0
	case 0x4:
		vals[10] = 0x0
		vals[12] = 0x0
		vals[13] = 0x0
		vals[14] = 0x0
		v22 := v21
		vals[22] = v22
		vals[24] = 0x0
		vals[26] = 0x0
		v34 := v33
		vals[34] = v34
		vals[95] = 0x0
		v96 := v36
		vals[96] = v96
		v97 := v37
		vals[97] = v97
		v98 := v38
		vals[98] = v98
		v99 := v39
		vals[99] = v99
		v100 := v40
		vals[100] = v100
		v101 := v41
		vals[101] = v101
		v102 := v42
		vals[102] = v102
		v103 := v43
		vals[103] = v103
		v104 := v44
		vals[104] = v104
		v105 := v45
		vals[105] = v105
		v106 := v46
		vals[106] = v106
		v107 := v47
		vals[107] = v107
		v108 := v48
		vals[108] = v108
		v109 := v49
		vals[109] = v109
		v110 := v50
		vals[110] = v110
		v111 := v51
		vals[111] = v111
		v175 := v112
		vals[175] = v175
		v176 := v175
		vals[176] = v176
		v178 := v113
		vals[178] = v178
		vals[181] = 0x1
		v182 := v114
		vals[182] = v182
		v183 := v182
		vals[183] = v183
		v185 := v115
		vals[185] = v185
		v187 := v116
		vals[187] = v187
		v188 := v187
		vals[188] = v188
		v190 := v117
		vals[190] = v190
		v192 := v118
		vals[192] = v192
		v193 := v192
		vals[193] = v193
		v195 := v119
		vals[195] = v195
		v197 := v120
		vals[197] = v197
		v198 := v197
		vals[198] = v198
		v200 := v121
		vals[200] = v200
		v202 := v122
		vals[202] = v202
		v203 := v202
		vals[203] = v203
		v205 := v123
		vals[205] = v205
		v207 := v124
		vals[207] = v207
		v208 := v207
		vals[208] = v208
		v210 := v125
		vals[210] = v210
		v212 := v126
		vals[212] = v212
		v213 := v212
		vals[213] = v213
		v215 := v127
		vals[215] = v215
		v218 := v4
		vals[218] = v218
		v219 := v218
		vals[219] = v219
		vals[222] = 0x5
		vals[224] = 0x5
		var v225 uint64
		if v220 != 0 {
			v225 = 0x3
		} else {
			v225 = 0x4
		}
		vals[225] = v225
		vals[226] = 0x5
		var v227 uint64
		if v25 != 0 {
			v227 = 0x2
		} else {
			v227 = 0x4
		}
		vals[227] = v227
		vals[228] = 0x5
		vals[229] = 0x5
		vals[230] = 0x0
	case 0x5:
		vals[10] = 0x0
		vals[12] = 0x0
		vals[13] = 0x0
		vals[14] = 0x0
		v22 := v21
		vals[22] = v22
		vals[24] = 0x0
		vals[26] = 0x0
		v34 := v33
		vals[34] = v34
		vals[95] = 0x0
		v96 := v36
		vals[96] = v96
		v97 := v37
		vals[97] = v97
		v98 := v38
		vals[98] = v98
		v99 := v39
		vals[99] = v99
		v100 := v40
		vals[100] = v100
		v101 := v41
		vals[101] = v101
		v102 := v42
		vals[102] = v102
		v103 := v43
		vals[103] = v103
		v104 := v44
		vals[104] = v104
		v105 := v45
		vals[105] = v105
		v106 := v46
		vals[106] = v106
		v107 := v47
		vals[107] = v107
		v108 := v48
		vals[108] = v108
		v109 := v49
		vals[109] = v109
		v110 := v50
		vals[110] = v110
		v111 := v51
		vals[111] = v111
		v175 := v112
		vals[175] = v175
		v176 := v175
		vals[176] = v176
		v178 := v113
		vals[178] = v178
		vals[181] = 0x0
		v182 := v114
		vals[182] = v182
		v183 := v182
		vals[183] = v183
		v185 := v115
		vals[185] = v185
		v187 := v116
		vals[187] = v187
		v188 := v187
		vals[188] = v188
		v190 := v117
		vals[190] = v190
		v192 := v118
		vals[192] = v192
		v193 := v192
		vals[193] = v193
		v195 := v119
		vals[195] = v195
		v197 := v120
		vals[197] = v197
		v198 := v197
		vals[198] = v198
		v200 := v121
		vals[200] = v200
		v202 := v122
		vals[202] = v202
		v203 := v202
		vals[203] = v203
		v205 := v123
		vals[205] = v205
		v207 := v124
		vals[207] = v207
		v208 := v207
		vals[208] = v208
		v210 := v125
		vals[210] = v210
		v212 := v126
		vals[212] = v212
		v213 := v212
		vals[213] = v213
		v215 := v127
		vals[215] = v215
		v218 := v4
		vals[218] = v218
		v219 := v218
		vals[219] = v219
		vals[222] = 0x5
		vals[224] = 0x5
		var v225 uint64
		if v220 != 0 {
			v225 = 0x3
		} else {
			v225 = 0x5
		}
		vals[225] = v225
		vals[226] = 0x5
		var v227 uint64
		if v25 != 0 {
			v227 = 0x2
		} else {
			v227 = 0x5
		}
		vals[227] = v227
		vals[228] = 0x5
		vals[229] = 0x5
		vals[230] = 0x1
	default:
		var v10 uint64
		if v3 == 0x0 {
			v10 = 1
		}
		vals[10] = v10
		var v12 uint64
		if v3 == 0x3 {
			v12 = 1
		}
		vals[12] = v12
		v13 := v12 & v6
		vals[13] = v13
		v14 := (v10 | v13)
		vals[14] = v14
		var v22 uint64
		if v14 != 0 {
			v22 = 0xf
		} else {
			v22 = v21
		}
		vals[22] = v22
		var v24 uint64
		if v3 == 0x1 {
			v24 = 1
		}
		vals[24] = v24
		v26 := v24 & v25
		vals[26] = v26
		var v34 uint64
		if v26 != 0 {
			v34 = 0x3f
		} else {
			v34 = v33
		}
		vals[34] = v34
		var v95 uint64
		if v3 == 0x2 {
			v95 = 1
		}
		vals[95] = v95
		var v96 uint64
		if v95 != 0 {
			v96 = v37
		} else {
			v96 = v36
		}
		vals[96] = v96
		var v97 uint64
		if v95 != 0 {
			v97 = v38
		} else {
			v97 = v37
		}
		vals[97] = v97
		var v98 uint64
		if v95 != 0 {
			v98 = v39
		} else {
			v98 = v38
		}
		vals[98] = v98
		var v99 uint64
		if v95 != 0 {
			v99 = v40
		} else {
			v99 = v39
		}
		vals[99] = v99
		var v100 uint64
		if v95 != 0 {
			v100 = v41
		} else {
			v100 = v40
		}
		vals[100] = v100
		var v101 uint64
		if v95 != 0 {
			v101 = v42
		} else {
			v101 = v41
		}
		vals[101] = v101
		var v102 uint64
		if v95 != 0 {
			v102 = v43
		} else {
			v102 = v42
		}
		vals[102] = v102
		var v103 uint64
		if v95 != 0 {
			v103 = v44
		} else {
			v103 = v43
		}
		vals[103] = v103
		var v104 uint64
		if v95 != 0 {
			v104 = v45
		} else {
			v104 = v44
		}
		vals[104] = v104
		var v105 uint64
		if v95 != 0 {
			v105 = v46
		} else {
			v105 = v45
		}
		vals[105] = v105
		var v106 uint64
		if v95 != 0 {
			v106 = v47
		} else {
			v106 = v46
		}
		vals[106] = v106
		var v107 uint64
		if v95 != 0 {
			v107 = v48
		} else {
			v107 = v47
		}
		vals[107] = v107
		var v108 uint64
		if v95 != 0 {
			v108 = v49
		} else {
			v108 = v48
		}
		vals[108] = v108
		var v109 uint64
		if v95 != 0 {
			v109 = v50
		} else {
			v109 = v49
		}
		vals[109] = v109
		var v110 uint64
		if v95 != 0 {
			v110 = v51
		} else {
			v110 = v50
		}
		vals[110] = v110
		var v111 uint64
		if v95 != 0 {
			v111 = v93
		} else {
			v111 = v51
		}
		vals[111] = v111
		var v175 uint64
		if v95 != 0 {
			v175 = v173
		} else {
			v175 = v112
		}
		vals[175] = v175
		var v176 uint64
		if v24 != 0 {
			v176 = v113
		} else {
			v176 = v175
		}
		vals[176] = v176
		var v178 uint64
		if v12 != 0 {
			v178 = v177
		} else {
			v178 = v113
		}
		vals[178] = v178
		var v181 uint64
		if v3 == 0x4 {
			v181 = 1
		}
		vals[181] = v181
		var v182 uint64
		if v95 != 0 {
			v182 = v112
		} else {
			v182 = v114
		}
		vals[182] = v182
		var v183 uint64
		if v24 != 0 {
			v183 = v115
		} else {
			v183 = v182
		}
		vals[183] = v183
		var v185 uint64
		if v12 != 0 {
			v185 = v184
		} else {
			v185 = v115
		}
		vals[185] = v185
		var v187 uint64
		if v95 != 0 {
			v187 = v114
		} else {
			v187 = v116
		}
		vals[187] = v187
		var v188 uint64
		if v24 != 0 {
			v188 = v117
		} else {
			v188 = v187
		}
		vals[188] = v188
		var v190 uint64
		if v12 != 0 {
			v190 = v189
		} else {
			v190 = v117
		}
		vals[190] = v190
		var v192 uint64
		if v95 != 0 {
			v192 = v116
		} else {
			v192 = v118
		}
		vals[192] = v192
		var v193 uint64
		if v24 != 0 {
			v193 = v119
		} else {
			v193 = v192
		}
		vals[193] = v193
		var v195 uint64
		if v12 != 0 {
			v195 = v194
		} else {
			v195 = v119
		}
		vals[195] = v195
		var v197 uint64
		if v95 != 0 {
			v197 = v174
		} else {
			v197 = v120
		}
		vals[197] = v197
		var v198 uint64
		if v24 != 0 {
			v198 = v121
		} else {
			v198 = v197
		}
		vals[198] = v198
		var v200 uint64
		if v12 != 0 {
			v200 = v199
		} else {
			v200 = v121
		}
		vals[200] = v200
		var v202 uint64
		if v95 != 0 {
			v202 = v120
		} else {
			v202 = v122
		}
		vals[202] = v202
		var v203 uint64
		if v24 != 0 {
			v203 = v123
		} else {
			v203 = v202
		}
		vals[203] = v203
		var v205 uint64
		if v12 != 0 {
			v205 = v204
		} else {
			v205 = v123
		}
		vals[205] = v205
		var v207 uint64
		if v95 != 0 {
			v207 = v122
		} else {
			v207 = v124
		}
		vals[207] = v207
		var v208 uint64
		if v24 != 0 {
			v208 = v125
		} else {
			v208 = v207
		}
		vals[208] = v208
		var v210 uint64
		if v12 != 0 {
			v210 = v209
		} else {
			v210 = v125
		}
		vals[210] = v210
		var v212 uint64
		if v95 != 0 {
			v212 = v124
		} else {
			v212 = v126
		}
		vals[212] = v212
		var v213 uint64
		if v24 != 0 {
			v213 = v127
		} else {
			v213 = v212
		}
		vals[213] = v213
		var v215 uint64
		if v12 != 0 {
			v215 = v214
		} else {
			v215 = v127
		}
		vals[215] = v215
		var v218 uint64
		if v13 != 0 {
			v218 = v217
		} else {
			v218 = v4
		}
		vals[218] = v218
		var v219 uint64
		if v10 != 0 {
			v219 = v7
		} else {
			v219 = v218
		}
		vals[219] = v219
		var v222 uint64
		if v181 != 0 {
			v222 = 0x5
		} else {
			v222 = v3
		}
		vals[222] = v222
		var v224 uint64
		if v12 != 0 {
			v224 = v223
		} else {
			v224 = v222
		}
		vals[224] = v224
		var v225 uint64
		if v220 != 0 {
			v225 = 0x3
		} else {
			v225 = v3
		}
		vals[225] = v225
		var v226 uint64
		if v95 != 0 {
			v226 = v225
		} else {
			v226 = v224
		}
		vals[226] = v226
		var v227 uint64
		if v25 != 0 {
			v227 = 0x2
		} else {
			v227 = v3
		}
		vals[227] = v227
		var v228 uint64
		if v24 != 0 {
			v228 = v227
		} else {
			v228 = v226
		}
		vals[228] = v228
		var v229 uint64
		if v10 != 0 {
			v229 = 0x1
		} else {
			v229 = v228
		}
		vals[229] = v229
		var v230 uint64
		if v3 == 0x5 {
			v230 = 1
		}
		vals[230] = v230
	}
	done := vals[230] != 0
	if vals[181] != 0 {
		if addr := vals[179]; addr < uint64(len(m1)) {
			m1[addr] = vals[113]
		}
	}
	if vals[181] != 0 {
		if addr := vals[186]; addr < uint64(len(m1)) {
			m1[addr] = vals[115]
		}
	}
	if vals[181] != 0 {
		if addr := vals[191]; addr < uint64(len(m1)) {
			m1[addr] = vals[117]
		}
	}
	if vals[181] != 0 {
		if addr := vals[196]; addr < uint64(len(m1)) {
			m1[addr] = vals[119]
		}
	}
	if vals[181] != 0 {
		if addr := vals[201]; addr < uint64(len(m1)) {
			m1[addr] = vals[121]
		}
	}
	if vals[181] != 0 {
		if addr := vals[206]; addr < uint64(len(m1)) {
			m1[addr] = vals[123]
		}
	}
	if vals[181] != 0 {
		if addr := vals[211]; addr < uint64(len(m1)) {
			m1[addr] = vals[125]
		}
	}
	if vals[181] != 0 {
		if addr := vals[216]; addr < uint64(len(m1)) {
			m1[addr] = vals[127]
		}
	}
	l0 := vals[229] & 0x7
	l1 := vals[219] & 0xffff
	l2 := vals[22] & 0x1f
	l3 := vals[34] & 0x7f
	l4 := vals[96] & 0xffffffff
	l5 := vals[97] & 0xffffffff
	l6 := vals[98] & 0xffffffff
	l7 := vals[99] & 0xffffffff
	l8 := vals[100] & 0xffffffff
	l9 := vals[101] & 0xffffffff
	l10 := vals[102] & 0xffffffff
	l11 := vals[103] & 0xffffffff
	l12 := vals[104] & 0xffffffff
	l13 := vals[105] & 0xffffffff
	l14 := vals[106] & 0xffffffff
	l15 := vals[107] & 0xffffffff
	l16 := vals[108] & 0xffffffff
	l17 := vals[109] & 0xffffffff
	l18 := vals[110] & 0xffffffff
	l19 := vals[111] & 0xffffffff
	l20 := vals[176] & 0xffffffff
	l21 := vals[178] & 0xffffffff
	l22 := vals[183] & 0xffffffff
	l23 := vals[185] & 0xffffffff
	l24 := vals[188] & 0xffffffff
	l25 := vals[190] & 0xffffffff
	l26 := vals[193] & 0xffffffff
	l27 := vals[195] & 0xffffffff
	l28 := vals[198] & 0xffffffff
	l29 := vals[200] & 0xffffffff
	l30 := vals[203] & 0xffffffff
	l31 := vals[205] & 0xffffffff
	l32 := vals[208] & 0xffffffff
	l33 := vals[210] & 0xffffffff
	l34 := vals[213] & 0xffffffff
	l35 := vals[215] & 0xffffffff
	vals[3] = l0
	vals[4] = l1
	vals[16] = l2
	vals[28] = l3
	vals[36] = l4
	vals[37] = l5
	vals[38] = l6
	vals[39] = l7
	vals[40] = l8
	vals[41] = l9
	vals[42] = l10
	vals[43] = l11
	vals[44] = l12
	vals[45] = l13
	vals[46] = l14
	vals[47] = l15
	vals[48] = l16
	vals[49] = l17
	vals[50] = l18
	vals[51] = l19
	vals[112] = l20
	vals[113] = l21
	vals[114] = l22
	vals[115] = l23
	vals[116] = l24
	vals[117] = l25
	vals[118] = l26
	vals[119] = l27
	vals[120] = l28
	vals[121] = l29
	vals[122] = l30
	vals[123] = l31
	vals[124] = l32
	vals[125] = l33
	vals[126] = l34
	vals[127] = l35
	return cycles + 1, done
}

func step_sha_ins(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[287]
	m0 := mems[0]
	m1 := mems[1]
	m2 := mems[2]
	v3 := vals[3]
	v4 := vals[4]
	v16 := vals[16]
	v28 := vals[28]
	v36 := vals[36]
	v37 := vals[37]
	v38 := vals[38]
	v39 := vals[39]
	v40 := vals[40]
	v41 := vals[41]
	v42 := vals[42]
	v43 := vals[43]
	v44 := vals[44]
	v45 := vals[45]
	v46 := vals[46]
	v47 := vals[47]
	v48 := vals[48]
	v49 := vals[49]
	v50 := vals[50]
	v51 := vals[51]
	v112 := vals[112]
	v113 := vals[113]
	v114 := vals[114]
	v115 := vals[115]
	v116 := vals[116]
	v117 := vals[117]
	v118 := vals[118]
	v119 := vals[119]
	v120 := vals[120]
	v121 := vals[121]
	v122 := vals[122]
	v123 := vals[123]
	v124 := vals[124]
	v125 := vals[125]
	v126 := vals[126]
	v127 := vals[127]
	v234 := vals[234]
	v239 := vals[239]
	v244 := vals[244]
	v248 := vals[248]
	v253 := vals[253]
	v258 := vals[258]
	v261 := vals[261]
	v264 := vals[264]
	v267 := vals[267]
	v270 := vals[270]
	v273 := vals[273]
	v276 := vals[276]
	v279 := vals[279]
	v282 := vals[282]
	v285 := vals[285]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v30 uint64
		if v28 != 0x0 {
			v30 = 1
		}
		v32 := (v28 - 0x1) & 0x7f
		var v33 uint64
		if v30 != 0 {
			v33 = v32
		} else {
			v33 = v28
		}
		switch v3 {
		case 0x0:
			var v1 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v1 = m0[addr] & 0xffff
			}
			v7 := (v1 - 0x1) & 0xffff
			v235 := (v234 + 0x1) & 0xffffff
			v262 := (v261 + 0x1) & 0xffffff
			v265 := (v264 + v7) & 0xffffff
			v268 := (v267 + v4) & 0xffffff
			v271 := (v270 + 0x1) & 0xffffff
			v274 := (v273 + 0xf) & 0xffffff
			v277 := (v276 + v16) & 0xffffff
			v34 := v33
			v96 := v36
			v97 := v37
			v98 := v38
			v99 := v39
			v100 := v40
			v101 := v41
			v102 := v42
			v103 := v43
			v104 := v44
			v105 := v45
			v106 := v46
			v107 := v47
			v108 := v48
			v109 := v49
			v110 := v50
			v111 := v51
			v175 := v112
			v176 := v175
			v178 := v113
			v182 := v114
			v183 := v182
			v185 := v115
			v187 := v116
			v188 := v187
			v190 := v117
			v192 := v118
			v193 := v192
			v195 := v119
			v197 := v120
			v198 := v197
			v200 := v121
			v202 := v122
			v203 := v202
			v205 := v123
			v207 := v124
			v208 := v207
			v210 := v125
			v212 := v126
			v213 := v212
			v215 := v127
			v219 := v7
			v236 := v235
			v241 := v239
			v246 := v244
			v250 := v248
			v255 := v253
			v260 := v258
			v263 := v262
			v266 := v265
			v269 := v268
			v272 := v271
			v275 := v274
			v278 := v277
			v281 := v279
			v284 := v282
			v287 := v285
			n1 := v219
			n3 := v34
			n4 := v96
			n5 := v97
			n6 := v98
			n7 := v99
			n8 := v100
			n9 := v101
			n10 := v102
			n11 := v103
			n12 := v104
			n13 := v105
			n14 := v106
			n15 := v107
			n16 := v108
			n17 := v109
			n18 := v110
			n19 := v111
			n20 := v176
			n21 := v178
			n22 := v183
			n23 := v185
			n24 := v188
			n25 := v190
			n26 := v193
			n27 := v195
			n28 := v198
			n29 := v200
			n30 := v203
			n31 := v205
			n32 := v208
			n33 := v210
			n34 := v213
			n35 := v215
			n36 := v236
			n37 := v241
			n38 := v246
			n39 := v250
			n40 := v255
			n41 := v260
			n42 := v263
			n43 := v266
			n44 := v269
			n45 := v272
			n46 := v275
			n47 := v278
			n48 := v281
			n49 := v284
			n50 := v287
			v3 = 0x1
			v4 = n1
			v16 = 0xf
			v28 = n3
			v36 = n4
			v37 = n5
			v38 = n6
			v39 = n7
			v40 = n8
			v41 = n9
			v42 = n10
			v43 = n11
			v44 = n12
			v45 = n13
			v46 = n14
			v47 = n15
			v48 = n16
			v49 = n17
			v50 = n18
			v51 = n19
			v112 = n20
			v113 = n21
			v114 = n22
			v115 = n23
			v116 = n24
			v117 = n25
			v118 = n26
			v119 = n27
			v120 = n28
			v121 = n29
			v122 = n30
			v123 = n31
			v124 = n32
			v125 = n33
			v126 = n34
			v127 = n35
			v234 = n36
			v239 = n37
			v244 = n38
			v248 = n39
			v253 = n40
			v258 = n41
			v261 = n42
			v264 = n43
			v267 = n44
			v270 = n45
			v273 = n46
			v276 = n47
			v279 = n48
			v282 = n49
			v285 = n50
		case 0x1:
			var v18 uint64
			if v16 != 0x0 {
				v18 = 1
			}
			v20 := (v16 - 0x1) & 0x1f
			var v21 uint64
			if v18 != 0 {
				v21 = v20
			} else {
				v21 = v16
			}
			var v25 uint64
			if v16 == 0x0 {
				v25 = 1
			}
			v240 := (v239 + 0x1) & 0xffffff
			v280 := (v279 + 0x1) & 0xffffff
			v283 := (v282 + 0x3f) & 0xffffff
			v286 := (v285 + v28) & 0xffffff
			v22 := v21
			v26 := v25
			var v34 uint64
			if v26 != 0 {
				v34 = 0x3f
			} else {
				v34 = v33
			}
			v96 := v36
			v97 := v37
			v98 := v38
			v99 := v39
			v100 := v40
			v101 := v41
			v102 := v42
			v103 := v43
			v104 := v44
			v105 := v45
			v106 := v46
			v107 := v47
			v108 := v48
			v109 := v49
			v110 := v50
			v111 := v51
			v176 := v113
			v178 := v113
			v183 := v115
			v185 := v115
			v188 := v117
			v190 := v117
			v193 := v119
			v195 := v119
			v198 := v121
			v200 := v121
			v203 := v123
			v205 := v123
			v208 := v125
			v210 := v125
			v213 := v127
			v215 := v127
			v218 := v4
			v219 := v218
			var v227 uint64
			if v25 != 0 {
				v227 = 0x2
			} else {
				v227 = 0x1
			}
			v228 := v227
			v229 := v228
			v236 := v234
			var v237 uint64
			if v229 == 0x2 {
				v237 = 1
			}
			v238 := v237
			var v241 uint64
			if v238 != 0 {
				v241 = v240
			} else {
				v241 = v239
			}
			v246 := v244
			v250 := v248
			v255 := v253
			v260 := v258
			v263 := v261
			v266 := v264
			v269 := v267
			v272 := v270
			v275 := v273
			v278 := v276
			var v281 uint64
			if v26 != 0 {
				v281 = v280
			} else {
				v281 = v279
			}
			var v284 uint64
			if v26 != 0 {
				v284 = v283
			} else {
				v284 = v282
			}
			var v287 uint64
			if v26 != 0 {
				v287 = v286
			} else {
				v287 = v285
			}
			n0 := v229
			n1 := v219
			n2 := v22
			n3 := v34
			n4 := v96
			n5 := v97
			n6 := v98
			n7 := v99
			n8 := v100
			n9 := v101
			n10 := v102
			n11 := v103
			n12 := v104
			n13 := v105
			n14 := v106
			n15 := v107
			n16 := v108
			n17 := v109
			n18 := v110
			n19 := v111
			n20 := v176
			n21 := v178
			n22 := v183
			n23 := v185
			n24 := v188
			n25 := v190
			n26 := v193
			n27 := v195
			n28 := v198
			n29 := v200
			n30 := v203
			n31 := v205
			n32 := v208
			n33 := v210
			n34 := v213
			n35 := v215
			n36 := v236
			n37 := v241
			n38 := v246
			n39 := v250
			n40 := v255
			n41 := v260
			n42 := v263
			n43 := v266
			n44 := v269
			n45 := v272
			n46 := v275
			n47 := v278
			n48 := v281
			n49 := v284
			n50 := v287
			v3 = n0
			v4 = n1
			v16 = n2
			v28 = n3
			v36 = n4
			v37 = n5
			v38 = n6
			v39 = n7
			v40 = n8
			v41 = n9
			v42 = n10
			v43 = n11
			v44 = n12
			v45 = n13
			v46 = n14
			v47 = n15
			v48 = n16
			v49 = n17
			v50 = n18
			v51 = n19
			v112 = n20
			v113 = n21
			v114 = n22
			v115 = n23
			v116 = n24
			v117 = n25
			v118 = n26
			v119 = n27
			v120 = n28
			v121 = n29
			v122 = n30
			v123 = n31
			v124 = n32
			v125 = n33
			v126 = n34
			v127 = n35
			v234 = n36
			v239 = n37
			v244 = n38
			v248 = n39
			v253 = n40
			v258 = n41
			v261 = n42
			v264 = n43
			v267 = n44
			v270 = n45
			v273 = n46
			v276 = n47
			v279 = n48
			v282 = n49
			v285 = n50
		case 0x2:
			var v1 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v1 = m0[addr] & 0xffff
			}
			v7 := (v1 - 0x1) & 0xffff
			v8 := (v7 - v4) & 0xffff
			var v18 uint64
			if v16 != 0x0 {
				v18 = 1
			}
			v20 := (v16 - 0x1) & 0x1f
			var v21 uint64
			if v18 != 0 {
				v21 = v20
			} else {
				v21 = v16
			}
			v35 := (0x3f - v28) & 0x7f
			v53 := (v37 >> 7)
			v55 := (v37 << 25) & 0xffffffff
			v56 := (v53 | v55)
			v58 := (v37 >> 18)
			v60 := (v37 << 14) & 0xffffffff
			v61 := (v58 | v60)
			v62 := (v56 ^ v61)
			v64 := (v37 >> 3)
			v65 := (v62 ^ v64)
			v67 := (v50 >> 17)
			v69 := (v50 << 15) & 0xffffffff
			v70 := (v67 | v69)
			v72 := (v50 >> 19)
			v74 := (v50 << 13) & 0xffffffff
			v75 := (v72 | v74)
			v76 := (v70 ^ v75)
			v78 := (v50 >> 10)
			v79 := (v76 ^ v78)
			v80 := (v79 + v45) & 0xffffffff
			v81 := (v80 + v65) & 0xffffffff
			v82 := (v81 + v36) & 0xffffffff
			v84 := (v8 << 4) & 0xffff
			v85 := v35
			v86 := (v84 + v85) & 0xffff
			v87 := (v86 + 0x1) & 0xffff
			v89 := v87 & 0x3ff
			var v90 uint64
			if addr := uint64(v89); addr < uint64(len(m0)) {
				v90 = m0[addr] & 0xffffffff
			}
			var v92 uint64
			if v35 < 0x10 {
				v92 = 1
			}
			var v93 uint64
			if v92 != 0 {
				v93 = v90
			} else {
				v93 = v82
			}
			v128 := v35 & 0x3f
			var v129 uint64
			if addr := uint64(v128); addr < uint64(len(m2)) {
				v129 = m2[addr] & 0xffffffff
			}
			v131 := (v120 >> 6)
			v133 := (v120 << 26) & 0xffffffff
			v134 := (v131 | v133)
			v136 := (v120 >> 11)
			v138 := (v120 << 21) & 0xffffffff
			v139 := (v136 | v138)
			v140 := (v134 ^ v139)
			v141 := (v120 >> 25)
			v142 := (v120 << 7) & 0xffffffff
			v143 := (v141 | v142)
			v144 := (v140 ^ v143)
			v145 := v120 & v122
			v146 := ^v120 & 0xffffffff
			v147 := v146 & v124
			v148 := (v145 ^ v147)
			v149 := (v126 + v144) & 0xffffffff
			v150 := (v149 + v148) & 0xffffffff
			v151 := (v150 + v129) & 0xffffffff
			v152 := (v151 + v93) & 0xffffffff
			v154 := (v112 >> 2)
			v156 := (v112 << 30) & 0xffffffff
			v157 := (v154 | v156)
			v158 := (v112 >> 13)
			v159 := (v112 << 19) & 0xffffffff
			v160 := (v158 | v159)
			v161 := (v157 ^ v160)
			v163 := (v112 >> 22)
			v164 := (v112 << 10) & 0xffffffff
			v165 := (v163 | v164)
			v166 := (v161 ^ v165)
			v167 := v112 & v114
			v168 := v112 & v116
			v169 := (v167 ^ v168)
			v170 := v114 & v116
			v171 := (v169 ^ v170)
			v172 := (v166 + v171) & 0xffffffff
			v173 := (v152 + v172) & 0xffffffff
			v174 := (v118 + v152) & 0xffffffff
			var v220 uint64
			if v28 == 0x0 {
				v220 = 1
			}
			v245 := (v244 + 0x1) & 0xffffff
			v22 := v21
			v34 := v33
			v96 := v37
			v97 := v38
			v98 := v39
			v99 := v40
			v100 := v41
			v101 := v42
			v102 := v43
			v103 := v44
			v104 := v45
			v105 := v46
			v106 := v47
			v107 := v48
			v108 := v49
			v109 := v50
			v110 := v51
			v111 := v93
			v175 := v173
			v176 := v175
			v178 := v113
			v182 := v112
			v183 := v182
			v185 := v115
			v187 := v114
			v188 := v187
			v190 := v117
			v192 := v116
			v193 := v192
			v195 := v119
			v197 := v174
			v198 := v197
			v200 := v121
			v202 := v120
			v203 := v202
			v205 := v123
			v207 := v122
			v208 := v207
			v210 := v125
			v212 := v124
			v213 := v212
			v215 := v127
			v218 := v4
			v219 := v218
			var v225 uint64
			if v220 != 0 {
				v225 = 0x3
			} else {
				v225 = 0x2
			}
			v226 := v225
			v228 := v226
			v229 := v228
			v236 := v234
			v241 := v239
			var v242 uint64
			if v229 == 0x3 {
				v242 = 1
			}
			v243 := v242
			var v246 uint64
			if v243 != 0 {
				v246 = v245
			} else {
				v246 = v244
			}
			v250 := v248
			v255 := v253
			v260 := v258
			v263 := v261
			v266 := v264
			v269 := v267
			v272 := v270
			v275 := v273
			v278 := v276
			v281 := v279
			v284 := v282
			v287 := v285
			n0 := v229
			n1 := v219
			n2 := v22
			n3 := v34
			n4 := v96
			n5 := v97
			n6 := v98
			n7 := v99
			n8 := v100
			n9 := v101
			n10 := v102
			n11 := v103
			n12 := v104
			n13 := v105
			n14 := v106
			n15 := v107
			n16 := v108
			n17 := v109
			n18 := v110
			n19 := v111
			n20 := v176
			n21 := v178
			n22 := v183
			n23 := v185
			n24 := v188
			n25 := v190
			n26 := v193
			n27 := v195
			n28 := v198
			n29 := v200
			n30 := v203
			n31 := v205
			n32 := v208
			n33 := v210
			n34 := v213
			n35 := v215
			n36 := v236
			n37 := v241
			n38 := v246
			n39 := v250
			n40 := v255
			n41 := v260
			n42 := v263
			n43 := v266
			n44 := v269
			n45 := v272
			n46 := v275
			n47 := v278
			n48 := v281
			n49 := v284
			n50 := v287
			v3 = n0
			v4 = n1
			v16 = n2
			v28 = n3
			v36 = n4
			v37 = n5
			v38 = n6
			v39 = n7
			v40 = n8
			v41 = n9
			v42 = n10
			v43 = n11
			v44 = n12
			v45 = n13
			v46 = n14
			v47 = n15
			v48 = n16
			v49 = n17
			v50 = n18
			v51 = n19
			v112 = n20
			v113 = n21
			v114 = n22
			v115 = n23
			v116 = n24
			v117 = n25
			v118 = n26
			v119 = n27
			v120 = n28
			v121 = n29
			v122 = n30
			v123 = n31
			v124 = n32
			v125 = n33
			v126 = n34
			v127 = n35
			v234 = n36
			v239 = n37
			v244 = n38
			v248 = n39
			v253 = n40
			v258 = n41
			v261 = n42
			v264 = n43
			v267 = n44
			v270 = n45
			v273 = n46
			v276 = n47
			v279 = n48
			v282 = n49
			v285 = n50
		case 0x3:
			var v6 uint64
			if v4 != 0x0 {
				v6 = 1
			}
			var v18 uint64
			if v16 != 0x0 {
				v18 = 1
			}
			v20 := (v16 - 0x1) & 0x1f
			var v21 uint64
			if v18 != 0 {
				v21 = v20
			} else {
				v21 = v16
			}
			v177 := (v113 + v112) & 0xffffffff
			v184 := (v115 + v114) & 0xffffffff
			v189 := (v117 + v116) & 0xffffffff
			v194 := (v119 + v118) & 0xffffffff
			v199 := (v121 + v120) & 0xffffffff
			v204 := (v123 + v122) & 0xffffffff
			v209 := (v125 + v124) & 0xffffffff
			v214 := (v127 + v126) & 0xffffffff
			v217 := (v4 - 0x1) & 0xffff
			var v223 uint64
			if v6 != 0 {
				v223 = 0x1
			} else {
				v223 = 0x4
			}
			v249 := (v248 + 0x1) & 0xffffff
			v254 := (v253 + 0x1) & 0xffffff
			v271 := (v270 + 0x1) & 0xffffff
			v274 := (v273 + 0xf) & 0xffffff
			v277 := (v276 + v16) & 0xffffff
			v13 := v6
			v14 := v13
			var v22 uint64
			if v14 != 0 {
				v22 = 0xf
			} else {
				v22 = v21
			}
			v34 := v33
			v96 := v36
			v97 := v37
			v98 := v38
			v99 := v39
			v100 := v40
			v101 := v41
			v102 := v42
			v103 := v43
			v104 := v44
			v105 := v45
			v106 := v46
			v107 := v47
			v108 := v48
			v109 := v49
			v110 := v50
			v111 := v51
			v175 := v112
			v176 := v175
			v178 := v177
			v182 := v114
			v183 := v182
			v185 := v184
			v187 := v116
			v188 := v187
			v190 := v189
			v192 := v118
			v193 := v192
			v195 := v194
			v197 := v120
			v198 := v197
			v200 := v199
			v202 := v122
			v203 := v202
			v205 := v204
			v207 := v124
			v208 := v207
			v210 := v209
			v212 := v126
			v213 := v212
			v215 := v214
			var v218 uint64
			if v13 != 0 {
				v218 = v217
			} else {
				v218 = v4
			}
			v219 := v218
			v224 := v223
			v226 := v224
			v228 := v226
			v229 := v228
			var v231 uint64
			if v229 == 0x1 {
				v231 = 1
			}
			v236 := v234
			v241 := v239
			v246 := v244
			v247 := v231
			var v250 uint64
			if v247 != 0 {
				v250 = v249
			} else {
				v250 = v248
			}
			var v251 uint64
			if v229 == 0x4 {
				v251 = 1
			}
			v252 := v251
			var v255 uint64
			if v252 != 0 {
				v255 = v254
			} else {
				v255 = v253
			}
			v260 := v258
			v263 := v261
			v266 := v264
			v269 := v267
			var v272 uint64
			if v14 != 0 {
				v272 = v271
			} else {
				v272 = v270
			}
			var v275 uint64
			if v14 != 0 {
				v275 = v274
			} else {
				v275 = v273
			}
			var v278 uint64
			if v14 != 0 {
				v278 = v277
			} else {
				v278 = v276
			}
			v281 := v279
			v284 := v282
			v287 := v285
			n0 := v229
			n1 := v219
			n2 := v22
			n3 := v34
			n4 := v96
			n5 := v97
			n6 := v98
			n7 := v99
			n8 := v100
			n9 := v101
			n10 := v102
			n11 := v103
			n12 := v104
			n13 := v105
			n14 := v106
			n15 := v107
			n16 := v108
			n17 := v109
			n18 := v110
			n19 := v111
			n20 := v176
			n21 := v178
			n22 := v183
			n23 := v185
			n24 := v188
			n25 := v190
			n26 := v193
			n27 := v195
			n28 := v198
			n29 := v200
			n30 := v203
			n31 := v205
			n32 := v208
			n33 := v210
			n34 := v213
			n35 := v215
			n36 := v236
			n37 := v241
			n38 := v246
			n39 := v250
			n40 := v255
			n41 := v260
			n42 := v263
			n43 := v266
			n44 := v269
			n45 := v272
			n46 := v275
			n47 := v278
			n48 := v281
			n49 := v284
			n50 := v287
			v3 = n0
			v4 = n1
			v16 = n2
			v28 = n3
			v36 = n4
			v37 = n5
			v38 = n6
			v39 = n7
			v40 = n8
			v41 = n9
			v42 = n10
			v43 = n11
			v44 = n12
			v45 = n13
			v46 = n14
			v47 = n15
			v48 = n16
			v49 = n17
			v50 = n18
			v51 = n19
			v112 = n20
			v113 = n21
			v114 = n22
			v115 = n23
			v116 = n24
			v117 = n25
			v118 = n26
			v119 = n27
			v120 = n28
			v121 = n29
			v122 = n30
			v123 = n31
			v124 = n32
			v125 = n33
			v126 = n34
			v127 = n35
			v234 = n36
			v239 = n37
			v244 = n38
			v248 = n39
			v253 = n40
			v258 = n41
			v261 = n42
			v264 = n43
			v267 = n44
			v270 = n45
			v273 = n46
			v276 = n47
			v279 = n48
			v282 = n49
			v285 = n50
		case 0x4:
			var v18 uint64
			if v16 != 0x0 {
				v18 = 1
			}
			v20 := (v16 - 0x1) & 0x1f
			var v21 uint64
			if v18 != 0 {
				v21 = v20
			} else {
				v21 = v16
			}
			v259 := (v258 + 0x1) & 0xffffff
			v22 := v21
			v34 := v33
			v96 := v36
			v97 := v37
			v98 := v38
			v99 := v39
			v100 := v40
			v101 := v41
			v102 := v42
			v103 := v43
			v104 := v44
			v105 := v45
			v106 := v46
			v107 := v47
			v108 := v48
			v109 := v49
			v110 := v50
			v111 := v51
			v175 := v112
			v176 := v175
			v178 := v113
			v182 := v114
			v183 := v182
			v185 := v115
			v187 := v116
			v188 := v187
			v190 := v117
			v192 := v118
			v193 := v192
			v195 := v119
			v197 := v120
			v198 := v197
			v200 := v121
			v202 := v122
			v203 := v202
			v205 := v123
			v207 := v124
			v208 := v207
			v210 := v125
			v212 := v126
			v213 := v212
			v215 := v127
			v218 := v4
			v219 := v218
			v236 := v234
			v241 := v239
			v246 := v244
			v250 := v248
			v255 := v253
			v260 := v259
			v263 := v261
			v266 := v264
			v269 := v267
			v272 := v270
			v275 := v273
			v278 := v276
			v281 := v279
			v284 := v282
			v287 := v285
			if addr := uint64(0x0); addr < uint64(len(m1)) {
				m1[addr] = v113
			}
			if addr := uint64(0x1); addr < uint64(len(m1)) {
				m1[addr] = v115
			}
			if addr := uint64(0x2); addr < uint64(len(m1)) {
				m1[addr] = v117
			}
			if addr := uint64(0x3); addr < uint64(len(m1)) {
				m1[addr] = v119
			}
			if addr := uint64(0x4); addr < uint64(len(m1)) {
				m1[addr] = v121
			}
			if addr := uint64(0x5); addr < uint64(len(m1)) {
				m1[addr] = v123
			}
			if addr := uint64(0x6); addr < uint64(len(m1)) {
				m1[addr] = v125
			}
			if addr := uint64(0x7); addr < uint64(len(m1)) {
				m1[addr] = v127
			}
			n1 := v219
			n2 := v22
			n3 := v34
			n4 := v96
			n5 := v97
			n6 := v98
			n7 := v99
			n8 := v100
			n9 := v101
			n10 := v102
			n11 := v103
			n12 := v104
			n13 := v105
			n14 := v106
			n15 := v107
			n16 := v108
			n17 := v109
			n18 := v110
			n19 := v111
			n20 := v176
			n21 := v178
			n22 := v183
			n23 := v185
			n24 := v188
			n25 := v190
			n26 := v193
			n27 := v195
			n28 := v198
			n29 := v200
			n30 := v203
			n31 := v205
			n32 := v208
			n33 := v210
			n34 := v213
			n35 := v215
			n36 := v236
			n37 := v241
			n38 := v246
			n39 := v250
			n40 := v255
			n41 := v260
			n42 := v263
			n43 := v266
			n44 := v269
			n45 := v272
			n46 := v275
			n47 := v278
			n48 := v281
			n49 := v284
			n50 := v287
			v3 = 0x5
			v4 = n1
			v16 = n2
			v28 = n3
			v36 = n4
			v37 = n5
			v38 = n6
			v39 = n7
			v40 = n8
			v41 = n9
			v42 = n10
			v43 = n11
			v44 = n12
			v45 = n13
			v46 = n14
			v47 = n15
			v48 = n16
			v49 = n17
			v50 = n18
			v51 = n19
			v112 = n20
			v113 = n21
			v114 = n22
			v115 = n23
			v116 = n24
			v117 = n25
			v118 = n26
			v119 = n27
			v120 = n28
			v121 = n29
			v122 = n30
			v123 = n31
			v124 = n32
			v125 = n33
			v126 = n34
			v127 = n35
			v234 = n36
			v239 = n37
			v244 = n38
			v248 = n39
			v253 = n40
			v258 = n41
			v261 = n42
			v264 = n43
			v267 = n44
			v270 = n45
			v273 = n46
			v276 = n47
			v279 = n48
			v282 = n49
			v285 = n50
		case 0x5:
			break loop
		default:
			var v1 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v1 = m0[addr] & 0xffff
			}
			var v6 uint64
			if v4 != 0x0 {
				v6 = 1
			}
			v7 := (v1 - 0x1) & 0xffff
			v8 := (v7 - v4) & 0xffff
			var v18 uint64
			if v16 != 0x0 {
				v18 = 1
			}
			v20 := (v16 - 0x1) & 0x1f
			var v21 uint64
			if v18 != 0 {
				v21 = v20
			} else {
				v21 = v16
			}
			var v25 uint64
			if v16 == 0x0 {
				v25 = 1
			}
			v35 := (0x3f - v28) & 0x7f
			v53 := (v37 >> 7)
			v55 := (v37 << 25) & 0xffffffff
			v56 := (v53 | v55)
			v58 := (v37 >> 18)
			v60 := (v37 << 14) & 0xffffffff
			v61 := (v58 | v60)
			v62 := (v56 ^ v61)
			v64 := (v37 >> 3)
			v65 := (v62 ^ v64)
			v67 := (v50 >> 17)
			v69 := (v50 << 15) & 0xffffffff
			v70 := (v67 | v69)
			v72 := (v50 >> 19)
			v74 := (v50 << 13) & 0xffffffff
			v75 := (v72 | v74)
			v76 := (v70 ^ v75)
			v78 := (v50 >> 10)
			v79 := (v76 ^ v78)
			v80 := (v79 + v45) & 0xffffffff
			v81 := (v80 + v65) & 0xffffffff
			v82 := (v81 + v36) & 0xffffffff
			v84 := (v8 << 4) & 0xffff
			v85 := v35
			v86 := (v84 + v85) & 0xffff
			v87 := (v86 + 0x1) & 0xffff
			v89 := v87 & 0x3ff
			var v90 uint64
			if addr := uint64(v89); addr < uint64(len(m0)) {
				v90 = m0[addr] & 0xffffffff
			}
			var v92 uint64
			if v35 < 0x10 {
				v92 = 1
			}
			var v93 uint64
			if v92 != 0 {
				v93 = v90
			} else {
				v93 = v82
			}
			v128 := v35 & 0x3f
			var v129 uint64
			if addr := uint64(v128); addr < uint64(len(m2)) {
				v129 = m2[addr] & 0xffffffff
			}
			v131 := (v120 >> 6)
			v133 := (v120 << 26) & 0xffffffff
			v134 := (v131 | v133)
			v136 := (v120 >> 11)
			v138 := (v120 << 21) & 0xffffffff
			v139 := (v136 | v138)
			v140 := (v134 ^ v139)
			v141 := (v120 >> 25)
			v142 := (v120 << 7) & 0xffffffff
			v143 := (v141 | v142)
			v144 := (v140 ^ v143)
			v145 := v120 & v122
			v146 := ^v120 & 0xffffffff
			v147 := v146 & v124
			v148 := (v145 ^ v147)
			v149 := (v126 + v144) & 0xffffffff
			v150 := (v149 + v148) & 0xffffffff
			v151 := (v150 + v129) & 0xffffffff
			v152 := (v151 + v93) & 0xffffffff
			v154 := (v112 >> 2)
			v156 := (v112 << 30) & 0xffffffff
			v157 := (v154 | v156)
			v158 := (v112 >> 13)
			v159 := (v112 << 19) & 0xffffffff
			v160 := (v158 | v159)
			v161 := (v157 ^ v160)
			v163 := (v112 >> 22)
			v164 := (v112 << 10) & 0xffffffff
			v165 := (v163 | v164)
			v166 := (v161 ^ v165)
			v167 := v112 & v114
			v168 := v112 & v116
			v169 := (v167 ^ v168)
			v170 := v114 & v116
			v171 := (v169 ^ v170)
			v172 := (v166 + v171) & 0xffffffff
			v173 := (v152 + v172) & 0xffffffff
			v174 := (v118 + v152) & 0xffffffff
			v177 := (v113 + v112) & 0xffffffff
			v184 := (v115 + v114) & 0xffffffff
			v189 := (v117 + v116) & 0xffffffff
			v194 := (v119 + v118) & 0xffffffff
			v199 := (v121 + v120) & 0xffffffff
			v204 := (v123 + v122) & 0xffffffff
			v209 := (v125 + v124) & 0xffffffff
			v214 := (v127 + v126) & 0xffffffff
			v217 := (v4 - 0x1) & 0xffff
			var v220 uint64
			if v28 == 0x0 {
				v220 = 1
			}
			var v223 uint64
			if v6 != 0 {
				v223 = 0x1
			} else {
				v223 = 0x4
			}
			v235 := (v234 + 0x1) & 0xffffff
			v240 := (v239 + 0x1) & 0xffffff
			v245 := (v244 + 0x1) & 0xffffff
			v249 := (v248 + 0x1) & 0xffffff
			v254 := (v253 + 0x1) & 0xffffff
			v259 := (v258 + 0x1) & 0xffffff
			v262 := (v261 + 0x1) & 0xffffff
			v265 := (v264 + v7) & 0xffffff
			v268 := (v267 + v4) & 0xffffff
			v271 := (v270 + 0x1) & 0xffffff
			v274 := (v273 + 0xf) & 0xffffff
			v277 := (v276 + v16) & 0xffffff
			v280 := (v279 + 0x1) & 0xffffff
			v283 := (v282 + 0x3f) & 0xffffff
			v286 := (v285 + v28) & 0xffffff
			var v10 uint64
			if v3 == 0x0 {
				v10 = 1
			}
			var v12 uint64
			if v3 == 0x3 {
				v12 = 1
			}
			v13 := v12 & v6
			v14 := (v10 | v13)
			var v22 uint64
			if v14 != 0 {
				v22 = 0xf
			} else {
				v22 = v21
			}
			var v24 uint64
			if v3 == 0x1 {
				v24 = 1
			}
			v26 := v24 & v25
			var v34 uint64
			if v26 != 0 {
				v34 = 0x3f
			} else {
				v34 = v33
			}
			var v95 uint64
			if v3 == 0x2 {
				v95 = 1
			}
			var v96 uint64
			if v95 != 0 {
				v96 = v37
			} else {
				v96 = v36
			}
			var v97 uint64
			if v95 != 0 {
				v97 = v38
			} else {
				v97 = v37
			}
			var v98 uint64
			if v95 != 0 {
				v98 = v39
			} else {
				v98 = v38
			}
			var v99 uint64
			if v95 != 0 {
				v99 = v40
			} else {
				v99 = v39
			}
			var v100 uint64
			if v95 != 0 {
				v100 = v41
			} else {
				v100 = v40
			}
			var v101 uint64
			if v95 != 0 {
				v101 = v42
			} else {
				v101 = v41
			}
			var v102 uint64
			if v95 != 0 {
				v102 = v43
			} else {
				v102 = v42
			}
			var v103 uint64
			if v95 != 0 {
				v103 = v44
			} else {
				v103 = v43
			}
			var v104 uint64
			if v95 != 0 {
				v104 = v45
			} else {
				v104 = v44
			}
			var v105 uint64
			if v95 != 0 {
				v105 = v46
			} else {
				v105 = v45
			}
			var v106 uint64
			if v95 != 0 {
				v106 = v47
			} else {
				v106 = v46
			}
			var v107 uint64
			if v95 != 0 {
				v107 = v48
			} else {
				v107 = v47
			}
			var v108 uint64
			if v95 != 0 {
				v108 = v49
			} else {
				v108 = v48
			}
			var v109 uint64
			if v95 != 0 {
				v109 = v50
			} else {
				v109 = v49
			}
			var v110 uint64
			if v95 != 0 {
				v110 = v51
			} else {
				v110 = v50
			}
			var v111 uint64
			if v95 != 0 {
				v111 = v93
			} else {
				v111 = v51
			}
			var v175 uint64
			if v95 != 0 {
				v175 = v173
			} else {
				v175 = v112
			}
			var v176 uint64
			if v24 != 0 {
				v176 = v113
			} else {
				v176 = v175
			}
			var v178 uint64
			if v12 != 0 {
				v178 = v177
			} else {
				v178 = v113
			}
			var v181 uint64
			if v3 == 0x4 {
				v181 = 1
			}
			var v182 uint64
			if v95 != 0 {
				v182 = v112
			} else {
				v182 = v114
			}
			var v183 uint64
			if v24 != 0 {
				v183 = v115
			} else {
				v183 = v182
			}
			var v185 uint64
			if v12 != 0 {
				v185 = v184
			} else {
				v185 = v115
			}
			var v187 uint64
			if v95 != 0 {
				v187 = v114
			} else {
				v187 = v116
			}
			var v188 uint64
			if v24 != 0 {
				v188 = v117
			} else {
				v188 = v187
			}
			var v190 uint64
			if v12 != 0 {
				v190 = v189
			} else {
				v190 = v117
			}
			var v192 uint64
			if v95 != 0 {
				v192 = v116
			} else {
				v192 = v118
			}
			var v193 uint64
			if v24 != 0 {
				v193 = v119
			} else {
				v193 = v192
			}
			var v195 uint64
			if v12 != 0 {
				v195 = v194
			} else {
				v195 = v119
			}
			var v197 uint64
			if v95 != 0 {
				v197 = v174
			} else {
				v197 = v120
			}
			var v198 uint64
			if v24 != 0 {
				v198 = v121
			} else {
				v198 = v197
			}
			var v200 uint64
			if v12 != 0 {
				v200 = v199
			} else {
				v200 = v121
			}
			var v202 uint64
			if v95 != 0 {
				v202 = v120
			} else {
				v202 = v122
			}
			var v203 uint64
			if v24 != 0 {
				v203 = v123
			} else {
				v203 = v202
			}
			var v205 uint64
			if v12 != 0 {
				v205 = v204
			} else {
				v205 = v123
			}
			var v207 uint64
			if v95 != 0 {
				v207 = v122
			} else {
				v207 = v124
			}
			var v208 uint64
			if v24 != 0 {
				v208 = v125
			} else {
				v208 = v207
			}
			var v210 uint64
			if v12 != 0 {
				v210 = v209
			} else {
				v210 = v125
			}
			var v212 uint64
			if v95 != 0 {
				v212 = v124
			} else {
				v212 = v126
			}
			var v213 uint64
			if v24 != 0 {
				v213 = v127
			} else {
				v213 = v212
			}
			var v215 uint64
			if v12 != 0 {
				v215 = v214
			} else {
				v215 = v127
			}
			var v218 uint64
			if v13 != 0 {
				v218 = v217
			} else {
				v218 = v4
			}
			var v219 uint64
			if v10 != 0 {
				v219 = v7
			} else {
				v219 = v218
			}
			var v222 uint64
			if v181 != 0 {
				v222 = 0x5
			} else {
				v222 = v3
			}
			var v224 uint64
			if v12 != 0 {
				v224 = v223
			} else {
				v224 = v222
			}
			var v225 uint64
			if v220 != 0 {
				v225 = 0x3
			} else {
				v225 = v3
			}
			var v226 uint64
			if v95 != 0 {
				v226 = v225
			} else {
				v226 = v224
			}
			var v227 uint64
			if v25 != 0 {
				v227 = 0x2
			} else {
				v227 = v3
			}
			var v228 uint64
			if v24 != 0 {
				v228 = v227
			} else {
				v228 = v226
			}
			var v229 uint64
			if v10 != 0 {
				v229 = 0x1
			} else {
				v229 = v228
			}
			var v230 uint64
			if v3 == 0x5 {
				v230 = 1
			}
			var v231 uint64
			if v229 == 0x1 {
				v231 = 1
			}
			v232 := v10 & v231
			var v236 uint64
			if v232 != 0 {
				v236 = v235
			} else {
				v236 = v234
			}
			var v237 uint64
			if v229 == 0x2 {
				v237 = 1
			}
			v238 := v24 & v237
			var v241 uint64
			if v238 != 0 {
				v241 = v240
			} else {
				v241 = v239
			}
			var v242 uint64
			if v229 == 0x3 {
				v242 = 1
			}
			v243 := v95 & v242
			var v246 uint64
			if v243 != 0 {
				v246 = v245
			} else {
				v246 = v244
			}
			v247 := v12 & v231
			var v250 uint64
			if v247 != 0 {
				v250 = v249
			} else {
				v250 = v248
			}
			var v251 uint64
			if v229 == 0x4 {
				v251 = 1
			}
			v252 := v12 & v251
			var v255 uint64
			if v252 != 0 {
				v255 = v254
			} else {
				v255 = v253
			}
			var v256 uint64
			if v229 == 0x5 {
				v256 = 1
			}
			v257 := v181 & v256
			var v260 uint64
			if v257 != 0 {
				v260 = v259
			} else {
				v260 = v258
			}
			var v263 uint64
			if v10 != 0 {
				v263 = v262
			} else {
				v263 = v261
			}
			var v266 uint64
			if v10 != 0 {
				v266 = v265
			} else {
				v266 = v264
			}
			var v269 uint64
			if v10 != 0 {
				v269 = v268
			} else {
				v269 = v267
			}
			var v272 uint64
			if v14 != 0 {
				v272 = v271
			} else {
				v272 = v270
			}
			var v275 uint64
			if v14 != 0 {
				v275 = v274
			} else {
				v275 = v273
			}
			var v278 uint64
			if v14 != 0 {
				v278 = v277
			} else {
				v278 = v276
			}
			var v281 uint64
			if v26 != 0 {
				v281 = v280
			} else {
				v281 = v279
			}
			var v284 uint64
			if v26 != 0 {
				v284 = v283
			} else {
				v284 = v282
			}
			var v287 uint64
			if v26 != 0 {
				v287 = v286
			} else {
				v287 = v285
			}
			if v230 != 0 {
				break loop
			}
			if v181 != 0 {
				if addr := uint64(0x0); addr < uint64(len(m1)) {
					m1[addr] = v113
				}
			}
			if v181 != 0 {
				if addr := uint64(0x1); addr < uint64(len(m1)) {
					m1[addr] = v115
				}
			}
			if v181 != 0 {
				if addr := uint64(0x2); addr < uint64(len(m1)) {
					m1[addr] = v117
				}
			}
			if v181 != 0 {
				if addr := uint64(0x3); addr < uint64(len(m1)) {
					m1[addr] = v119
				}
			}
			if v181 != 0 {
				if addr := uint64(0x4); addr < uint64(len(m1)) {
					m1[addr] = v121
				}
			}
			if v181 != 0 {
				if addr := uint64(0x5); addr < uint64(len(m1)) {
					m1[addr] = v123
				}
			}
			if v181 != 0 {
				if addr := uint64(0x6); addr < uint64(len(m1)) {
					m1[addr] = v125
				}
			}
			if v181 != 0 {
				if addr := uint64(0x7); addr < uint64(len(m1)) {
					m1[addr] = v127
				}
			}
			n0 := v229
			n1 := v219
			n2 := v22
			n3 := v34
			n4 := v96
			n5 := v97
			n6 := v98
			n7 := v99
			n8 := v100
			n9 := v101
			n10 := v102
			n11 := v103
			n12 := v104
			n13 := v105
			n14 := v106
			n15 := v107
			n16 := v108
			n17 := v109
			n18 := v110
			n19 := v111
			n20 := v176
			n21 := v178
			n22 := v183
			n23 := v185
			n24 := v188
			n25 := v190
			n26 := v193
			n27 := v195
			n28 := v198
			n29 := v200
			n30 := v203
			n31 := v205
			n32 := v208
			n33 := v210
			n34 := v213
			n35 := v215
			n36 := v236
			n37 := v241
			n38 := v246
			n39 := v250
			n40 := v255
			n41 := v260
			n42 := v263
			n43 := v266
			n44 := v269
			n45 := v272
			n46 := v275
			n47 := v278
			n48 := v281
			n49 := v284
			n50 := v287
			v3 = n0
			v4 = n1
			v16 = n2
			v28 = n3
			v36 = n4
			v37 = n5
			v38 = n6
			v39 = n7
			v40 = n8
			v41 = n9
			v42 = n10
			v43 = n11
			v44 = n12
			v45 = n13
			v46 = n14
			v47 = n15
			v48 = n16
			v49 = n17
			v50 = n18
			v51 = n19
			v112 = n20
			v113 = n21
			v114 = n22
			v115 = n23
			v116 = n24
			v117 = n25
			v118 = n26
			v119 = n27
			v120 = n28
			v121 = n29
			v122 = n30
			v123 = n31
			v124 = n32
			v125 = n33
			v126 = n34
			v127 = n35
			v234 = n36
			v239 = n37
			v244 = n38
			v248 = n39
			v253 = n40
			v258 = n41
			v261 = n42
			v264 = n43
			v267 = n44
			v270 = n45
			v273 = n46
			v276 = n47
			v279 = n48
			v282 = n49
			v285 = n50
		}
	}
	vals[3] = v3
	vals[4] = v4
	vals[16] = v16
	vals[28] = v28
	vals[36] = v36
	vals[37] = v37
	vals[38] = v38
	vals[39] = v39
	vals[40] = v40
	vals[41] = v41
	vals[42] = v42
	vals[43] = v43
	vals[44] = v44
	vals[45] = v45
	vals[46] = v46
	vals[47] = v47
	vals[48] = v48
	vals[49] = v49
	vals[50] = v50
	vals[51] = v51
	vals[112] = v112
	vals[113] = v113
	vals[114] = v114
	vals[115] = v115
	vals[116] = v116
	vals[117] = v117
	vals[118] = v118
	vals[119] = v119
	vals[120] = v120
	vals[121] = v121
	vals[122] = v122
	vals[123] = v123
	vals[124] = v124
	vals[125] = v125
	vals[126] = v126
	vals[127] = v127
	vals[234] = v234
	vals[239] = v239
	vals[244] = v244
	vals[248] = v248
	vals[253] = v253
	vals[258] = v258
	vals[261] = v261
	vals[264] = v264
	vals[267] = v267
	vals[270] = v270
	vals[273] = v273
	vals[276] = v276
	vals[279] = v279
	vals[282] = v282
	vals[285] = v285
	var v1 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v1 = m0[addr] & 0xffff
	}
	vals[1] = v1
	var v6 uint64
	if v4 != 0x0 {
		v6 = 1
	}
	vals[6] = v6
	v7 := (v1 - 0x1) & 0xffff
	vals[7] = v7
	v8 := (v7 - v4) & 0xffff
	vals[8] = v8
	var v18 uint64
	if v16 != 0x0 {
		v18 = 1
	}
	vals[18] = v18
	v20 := (v16 - 0x1) & 0x1f
	vals[20] = v20
	var v21 uint64
	if v18 != 0 {
		v21 = v20
	} else {
		v21 = v16
	}
	vals[21] = v21
	var v25 uint64
	if v16 == 0x0 {
		v25 = 1
	}
	vals[25] = v25
	var v30 uint64
	if v28 != 0x0 {
		v30 = 1
	}
	vals[30] = v30
	v32 := (v28 - 0x1) & 0x7f
	vals[32] = v32
	var v33 uint64
	if v30 != 0 {
		v33 = v32
	} else {
		v33 = v28
	}
	vals[33] = v33
	v35 := (0x3f - v28) & 0x7f
	vals[35] = v35
	v53 := (v37 >> 7)
	vals[53] = v53
	v55 := (v37 << 25) & 0xffffffff
	vals[55] = v55
	v56 := (v53 | v55)
	vals[56] = v56
	v58 := (v37 >> 18)
	vals[58] = v58
	v60 := (v37 << 14) & 0xffffffff
	vals[60] = v60
	v61 := (v58 | v60)
	vals[61] = v61
	v62 := (v56 ^ v61)
	vals[62] = v62
	v64 := (v37 >> 3)
	vals[64] = v64
	v65 := (v62 ^ v64)
	vals[65] = v65
	v67 := (v50 >> 17)
	vals[67] = v67
	v69 := (v50 << 15) & 0xffffffff
	vals[69] = v69
	v70 := (v67 | v69)
	vals[70] = v70
	v72 := (v50 >> 19)
	vals[72] = v72
	v74 := (v50 << 13) & 0xffffffff
	vals[74] = v74
	v75 := (v72 | v74)
	vals[75] = v75
	v76 := (v70 ^ v75)
	vals[76] = v76
	v78 := (v50 >> 10)
	vals[78] = v78
	v79 := (v76 ^ v78)
	vals[79] = v79
	v80 := (v79 + v45) & 0xffffffff
	vals[80] = v80
	v81 := (v80 + v65) & 0xffffffff
	vals[81] = v81
	v82 := (v81 + v36) & 0xffffffff
	vals[82] = v82
	v84 := (v8 << 4) & 0xffff
	vals[84] = v84
	v85 := v35
	vals[85] = v85
	v86 := (v84 + v85) & 0xffff
	vals[86] = v86
	v87 := (v86 + 0x1) & 0xffff
	vals[87] = v87
	v89 := v87 & 0x3ff
	vals[89] = v89
	var v90 uint64
	if addr := uint64(v89); addr < uint64(len(m0)) {
		v90 = m0[addr] & 0xffffffff
	}
	vals[90] = v90
	var v92 uint64
	if v35 < 0x10 {
		v92 = 1
	}
	vals[92] = v92
	var v93 uint64
	if v92 != 0 {
		v93 = v90
	} else {
		v93 = v82
	}
	vals[93] = v93
	v128 := v35 & 0x3f
	vals[128] = v128
	var v129 uint64
	if addr := uint64(v128); addr < uint64(len(m2)) {
		v129 = m2[addr] & 0xffffffff
	}
	vals[129] = v129
	v131 := (v120 >> 6)
	vals[131] = v131
	v133 := (v120 << 26) & 0xffffffff
	vals[133] = v133
	v134 := (v131 | v133)
	vals[134] = v134
	v136 := (v120 >> 11)
	vals[136] = v136
	v138 := (v120 << 21) & 0xffffffff
	vals[138] = v138
	v139 := (v136 | v138)
	vals[139] = v139
	v140 := (v134 ^ v139)
	vals[140] = v140
	v141 := (v120 >> 25)
	vals[141] = v141
	v142 := (v120 << 7) & 0xffffffff
	vals[142] = v142
	v143 := (v141 | v142)
	vals[143] = v143
	v144 := (v140 ^ v143)
	vals[144] = v144
	v145 := v120 & v122
	vals[145] = v145
	v146 := ^v120 & 0xffffffff
	vals[146] = v146
	v147 := v146 & v124
	vals[147] = v147
	v148 := (v145 ^ v147)
	vals[148] = v148
	v149 := (v126 + v144) & 0xffffffff
	vals[149] = v149
	v150 := (v149 + v148) & 0xffffffff
	vals[150] = v150
	v151 := (v150 + v129) & 0xffffffff
	vals[151] = v151
	v152 := (v151 + v93) & 0xffffffff
	vals[152] = v152
	v154 := (v112 >> 2)
	vals[154] = v154
	v156 := (v112 << 30) & 0xffffffff
	vals[156] = v156
	v157 := (v154 | v156)
	vals[157] = v157
	v158 := (v112 >> 13)
	vals[158] = v158
	v159 := (v112 << 19) & 0xffffffff
	vals[159] = v159
	v160 := (v158 | v159)
	vals[160] = v160
	v161 := (v157 ^ v160)
	vals[161] = v161
	v163 := (v112 >> 22)
	vals[163] = v163
	v164 := (v112 << 10) & 0xffffffff
	vals[164] = v164
	v165 := (v163 | v164)
	vals[165] = v165
	v166 := (v161 ^ v165)
	vals[166] = v166
	v167 := v112 & v114
	vals[167] = v167
	v168 := v112 & v116
	vals[168] = v168
	v169 := (v167 ^ v168)
	vals[169] = v169
	v170 := v114 & v116
	vals[170] = v170
	v171 := (v169 ^ v170)
	vals[171] = v171
	v172 := (v166 + v171) & 0xffffffff
	vals[172] = v172
	v173 := (v152 + v172) & 0xffffffff
	vals[173] = v173
	v174 := (v118 + v152) & 0xffffffff
	vals[174] = v174
	v177 := (v113 + v112) & 0xffffffff
	vals[177] = v177
	v184 := (v115 + v114) & 0xffffffff
	vals[184] = v184
	v189 := (v117 + v116) & 0xffffffff
	vals[189] = v189
	v194 := (v119 + v118) & 0xffffffff
	vals[194] = v194
	v199 := (v121 + v120) & 0xffffffff
	vals[199] = v199
	v204 := (v123 + v122) & 0xffffffff
	vals[204] = v204
	v209 := (v125 + v124) & 0xffffffff
	vals[209] = v209
	v214 := (v127 + v126) & 0xffffffff
	vals[214] = v214
	v217 := (v4 - 0x1) & 0xffff
	vals[217] = v217
	var v220 uint64
	if v28 == 0x0 {
		v220 = 1
	}
	vals[220] = v220
	var v223 uint64
	if v6 != 0 {
		v223 = 0x1
	} else {
		v223 = 0x4
	}
	vals[223] = v223
	v235 := (v234 + 0x1) & 0xffffff
	vals[235] = v235
	v240 := (v239 + 0x1) & 0xffffff
	vals[240] = v240
	v245 := (v244 + 0x1) & 0xffffff
	vals[245] = v245
	v249 := (v248 + 0x1) & 0xffffff
	vals[249] = v249
	v254 := (v253 + 0x1) & 0xffffff
	vals[254] = v254
	v259 := (v258 + 0x1) & 0xffffff
	vals[259] = v259
	v262 := (v261 + 0x1) & 0xffffff
	vals[262] = v262
	v265 := (v264 + v7) & 0xffffff
	vals[265] = v265
	v268 := (v267 + v4) & 0xffffff
	vals[268] = v268
	v271 := (v270 + 0x1) & 0xffffff
	vals[271] = v271
	v274 := (v273 + 0xf) & 0xffffff
	vals[274] = v274
	v277 := (v276 + v16) & 0xffffff
	vals[277] = v277
	v280 := (v279 + 0x1) & 0xffffff
	vals[280] = v280
	v283 := (v282 + 0x3f) & 0xffffff
	vals[283] = v283
	v286 := (v285 + v28) & 0xffffff
	vals[286] = v286
	switch v3 {
	case 0x0:
		vals[10] = 0x1
		vals[12] = 0x0
		vals[13] = 0x0
		vals[14] = 0x1
		vals[22] = 0xf
		vals[24] = 0x0
		vals[26] = 0x0
		v34 := v33
		vals[34] = v34
		vals[95] = 0x0
		v96 := v36
		vals[96] = v96
		v97 := v37
		vals[97] = v97
		v98 := v38
		vals[98] = v98
		v99 := v39
		vals[99] = v99
		v100 := v40
		vals[100] = v100
		v101 := v41
		vals[101] = v101
		v102 := v42
		vals[102] = v102
		v103 := v43
		vals[103] = v103
		v104 := v44
		vals[104] = v104
		v105 := v45
		vals[105] = v105
		v106 := v46
		vals[106] = v106
		v107 := v47
		vals[107] = v107
		v108 := v48
		vals[108] = v108
		v109 := v49
		vals[109] = v109
		v110 := v50
		vals[110] = v110
		v111 := v51
		vals[111] = v111
		v175 := v112
		vals[175] = v175
		v176 := v175
		vals[176] = v176
		v178 := v113
		vals[178] = v178
		vals[181] = 0x0
		v182 := v114
		vals[182] = v182
		v183 := v182
		vals[183] = v183
		v185 := v115
		vals[185] = v185
		v187 := v116
		vals[187] = v187
		v188 := v187
		vals[188] = v188
		v190 := v117
		vals[190] = v190
		v192 := v118
		vals[192] = v192
		v193 := v192
		vals[193] = v193
		v195 := v119
		vals[195] = v195
		v197 := v120
		vals[197] = v197
		v198 := v197
		vals[198] = v198
		v200 := v121
		vals[200] = v200
		v202 := v122
		vals[202] = v202
		v203 := v202
		vals[203] = v203
		v205 := v123
		vals[205] = v205
		v207 := v124
		vals[207] = v207
		v208 := v207
		vals[208] = v208
		v210 := v125
		vals[210] = v210
		v212 := v126
		vals[212] = v212
		v213 := v212
		vals[213] = v213
		v215 := v127
		vals[215] = v215
		v218 := v4
		vals[218] = v218
		v219 := v7
		vals[219] = v219
		vals[222] = 0x0
		vals[224] = 0x0
		var v225 uint64
		if v220 != 0 {
			v225 = 0x3
		} else {
			v225 = 0x0
		}
		vals[225] = v225
		vals[226] = 0x0
		var v227 uint64
		if v25 != 0 {
			v227 = 0x2
		} else {
			v227 = 0x0
		}
		vals[227] = v227
		vals[228] = 0x0
		vals[229] = 0x1
		vals[230] = 0x0
		vals[231] = 0x1
		vals[232] = 0x1
		v236 := v235
		vals[236] = v236
		vals[237] = 0x0
		vals[238] = 0x0
		v241 := v239
		vals[241] = v241
		vals[242] = 0x0
		vals[243] = 0x0
		v246 := v244
		vals[246] = v246
		vals[247] = 0x0
		v250 := v248
		vals[250] = v250
		vals[251] = 0x0
		vals[252] = 0x0
		v255 := v253
		vals[255] = v255
		vals[256] = 0x0
		vals[257] = 0x0
		v260 := v258
		vals[260] = v260
		v263 := v262
		vals[263] = v263
		v266 := v265
		vals[266] = v266
		v269 := v268
		vals[269] = v269
		v272 := v271
		vals[272] = v272
		v275 := v274
		vals[275] = v275
		v278 := v277
		vals[278] = v278
		v281 := v279
		vals[281] = v281
		v284 := v282
		vals[284] = v284
		v287 := v285
		vals[287] = v287
	case 0x1:
		vals[10] = 0x0
		vals[12] = 0x0
		vals[13] = 0x0
		vals[14] = 0x0
		v22 := v21
		vals[22] = v22
		vals[24] = 0x1
		v26 := v25
		vals[26] = v26
		var v34 uint64
		if v26 != 0 {
			v34 = 0x3f
		} else {
			v34 = v33
		}
		vals[34] = v34
		vals[95] = 0x0
		v96 := v36
		vals[96] = v96
		v97 := v37
		vals[97] = v97
		v98 := v38
		vals[98] = v98
		v99 := v39
		vals[99] = v99
		v100 := v40
		vals[100] = v100
		v101 := v41
		vals[101] = v101
		v102 := v42
		vals[102] = v102
		v103 := v43
		vals[103] = v103
		v104 := v44
		vals[104] = v104
		v105 := v45
		vals[105] = v105
		v106 := v46
		vals[106] = v106
		v107 := v47
		vals[107] = v107
		v108 := v48
		vals[108] = v108
		v109 := v49
		vals[109] = v109
		v110 := v50
		vals[110] = v110
		v111 := v51
		vals[111] = v111
		v175 := v112
		vals[175] = v175
		v176 := v113
		vals[176] = v176
		v178 := v113
		vals[178] = v178
		vals[181] = 0x0
		v182 := v114
		vals[182] = v182
		v183 := v115
		vals[183] = v183
		v185 := v115
		vals[185] = v185
		v187 := v116
		vals[187] = v187
		v188 := v117
		vals[188] = v188
		v190 := v117
		vals[190] = v190
		v192 := v118
		vals[192] = v192
		v193 := v119
		vals[193] = v193
		v195 := v119
		vals[195] = v195
		v197 := v120
		vals[197] = v197
		v198 := v121
		vals[198] = v198
		v200 := v121
		vals[200] = v200
		v202 := v122
		vals[202] = v202
		v203 := v123
		vals[203] = v203
		v205 := v123
		vals[205] = v205
		v207 := v124
		vals[207] = v207
		v208 := v125
		vals[208] = v208
		v210 := v125
		vals[210] = v210
		v212 := v126
		vals[212] = v212
		v213 := v127
		vals[213] = v213
		v215 := v127
		vals[215] = v215
		v218 := v4
		vals[218] = v218
		v219 := v218
		vals[219] = v219
		vals[222] = 0x1
		vals[224] = 0x1
		var v225 uint64
		if v220 != 0 {
			v225 = 0x3
		} else {
			v225 = 0x1
		}
		vals[225] = v225
		vals[226] = 0x1
		var v227 uint64
		if v25 != 0 {
			v227 = 0x2
		} else {
			v227 = 0x1
		}
		vals[227] = v227
		v228 := v227
		vals[228] = v228
		v229 := v228
		vals[229] = v229
		vals[230] = 0x0
		var v231 uint64
		if v229 == 0x1 {
			v231 = 1
		}
		vals[231] = v231
		vals[232] = 0x0
		v236 := v234
		vals[236] = v236
		var v237 uint64
		if v229 == 0x2 {
			v237 = 1
		}
		vals[237] = v237
		v238 := v237
		vals[238] = v238
		var v241 uint64
		if v238 != 0 {
			v241 = v240
		} else {
			v241 = v239
		}
		vals[241] = v241
		var v242 uint64
		if v229 == 0x3 {
			v242 = 1
		}
		vals[242] = v242
		vals[243] = 0x0
		v246 := v244
		vals[246] = v246
		vals[247] = 0x0
		v250 := v248
		vals[250] = v250
		var v251 uint64
		if v229 == 0x4 {
			v251 = 1
		}
		vals[251] = v251
		vals[252] = 0x0
		v255 := v253
		vals[255] = v255
		var v256 uint64
		if v229 == 0x5 {
			v256 = 1
		}
		vals[256] = v256
		vals[257] = 0x0
		v260 := v258
		vals[260] = v260
		v263 := v261
		vals[263] = v263
		v266 := v264
		vals[266] = v266
		v269 := v267
		vals[269] = v269
		v272 := v270
		vals[272] = v272
		v275 := v273
		vals[275] = v275
		v278 := v276
		vals[278] = v278
		var v281 uint64
		if v26 != 0 {
			v281 = v280
		} else {
			v281 = v279
		}
		vals[281] = v281
		var v284 uint64
		if v26 != 0 {
			v284 = v283
		} else {
			v284 = v282
		}
		vals[284] = v284
		var v287 uint64
		if v26 != 0 {
			v287 = v286
		} else {
			v287 = v285
		}
		vals[287] = v287
	case 0x2:
		vals[10] = 0x0
		vals[12] = 0x0
		vals[13] = 0x0
		vals[14] = 0x0
		v22 := v21
		vals[22] = v22
		vals[24] = 0x0
		vals[26] = 0x0
		v34 := v33
		vals[34] = v34
		vals[95] = 0x1
		v96 := v37
		vals[96] = v96
		v97 := v38
		vals[97] = v97
		v98 := v39
		vals[98] = v98
		v99 := v40
		vals[99] = v99
		v100 := v41
		vals[100] = v100
		v101 := v42
		vals[101] = v101
		v102 := v43
		vals[102] = v102
		v103 := v44
		vals[103] = v103
		v104 := v45
		vals[104] = v104
		v105 := v46
		vals[105] = v105
		v106 := v47
		vals[106] = v106
		v107 := v48
		vals[107] = v107
		v108 := v49
		vals[108] = v108
		v109 := v50
		vals[109] = v109
		v110 := v51
		vals[110] = v110
		v111 := v93
		vals[111] = v111
		v175 := v173
		vals[175] = v175
		v176 := v175
		vals[176] = v176
		v178 := v113
		vals[178] = v178
		vals[181] = 0x0
		v182 := v112
		vals[182] = v182
		v183 := v182
		vals[183] = v183
		v185 := v115
		vals[185] = v185
		v187 := v114
		vals[187] = v187
		v188 := v187
		vals[188] = v188
		v190 := v117
		vals[190] = v190
		v192 := v116
		vals[192] = v192
		v193 := v192
		vals[193] = v193
		v195 := v119
		vals[195] = v195
		v197 := v174
		vals[197] = v197
		v198 := v197
		vals[198] = v198
		v200 := v121
		vals[200] = v200
		v202 := v120
		vals[202] = v202
		v203 := v202
		vals[203] = v203
		v205 := v123
		vals[205] = v205
		v207 := v122
		vals[207] = v207
		v208 := v207
		vals[208] = v208
		v210 := v125
		vals[210] = v210
		v212 := v124
		vals[212] = v212
		v213 := v212
		vals[213] = v213
		v215 := v127
		vals[215] = v215
		v218 := v4
		vals[218] = v218
		v219 := v218
		vals[219] = v219
		vals[222] = 0x2
		vals[224] = 0x2
		var v225 uint64
		if v220 != 0 {
			v225 = 0x3
		} else {
			v225 = 0x2
		}
		vals[225] = v225
		v226 := v225
		vals[226] = v226
		var v227 uint64
		if v25 != 0 {
			v227 = 0x2
		} else {
			v227 = 0x2
		}
		vals[227] = v227
		v228 := v226
		vals[228] = v228
		v229 := v228
		vals[229] = v229
		vals[230] = 0x0
		var v231 uint64
		if v229 == 0x1 {
			v231 = 1
		}
		vals[231] = v231
		vals[232] = 0x0
		v236 := v234
		vals[236] = v236
		var v237 uint64
		if v229 == 0x2 {
			v237 = 1
		}
		vals[237] = v237
		vals[238] = 0x0
		v241 := v239
		vals[241] = v241
		var v242 uint64
		if v229 == 0x3 {
			v242 = 1
		}
		vals[242] = v242
		v243 := v242
		vals[243] = v243
		var v246 uint64
		if v243 != 0 {
			v246 = v245
		} else {
			v246 = v244
		}
		vals[246] = v246
		vals[247] = 0x0
		v250 := v248
		vals[250] = v250
		var v251 uint64
		if v229 == 0x4 {
			v251 = 1
		}
		vals[251] = v251
		vals[252] = 0x0
		v255 := v253
		vals[255] = v255
		var v256 uint64
		if v229 == 0x5 {
			v256 = 1
		}
		vals[256] = v256
		vals[257] = 0x0
		v260 := v258
		vals[260] = v260
		v263 := v261
		vals[263] = v263
		v266 := v264
		vals[266] = v266
		v269 := v267
		vals[269] = v269
		v272 := v270
		vals[272] = v272
		v275 := v273
		vals[275] = v275
		v278 := v276
		vals[278] = v278
		v281 := v279
		vals[281] = v281
		v284 := v282
		vals[284] = v284
		v287 := v285
		vals[287] = v287
	case 0x3:
		vals[10] = 0x0
		vals[12] = 0x1
		v13 := v6
		vals[13] = v13
		v14 := v13
		vals[14] = v14
		var v22 uint64
		if v14 != 0 {
			v22 = 0xf
		} else {
			v22 = v21
		}
		vals[22] = v22
		vals[24] = 0x0
		vals[26] = 0x0
		v34 := v33
		vals[34] = v34
		vals[95] = 0x0
		v96 := v36
		vals[96] = v96
		v97 := v37
		vals[97] = v97
		v98 := v38
		vals[98] = v98
		v99 := v39
		vals[99] = v99
		v100 := v40
		vals[100] = v100
		v101 := v41
		vals[101] = v101
		v102 := v42
		vals[102] = v102
		v103 := v43
		vals[103] = v103
		v104 := v44
		vals[104] = v104
		v105 := v45
		vals[105] = v105
		v106 := v46
		vals[106] = v106
		v107 := v47
		vals[107] = v107
		v108 := v48
		vals[108] = v108
		v109 := v49
		vals[109] = v109
		v110 := v50
		vals[110] = v110
		v111 := v51
		vals[111] = v111
		v175 := v112
		vals[175] = v175
		v176 := v175
		vals[176] = v176
		v178 := v177
		vals[178] = v178
		vals[181] = 0x0
		v182 := v114
		vals[182] = v182
		v183 := v182
		vals[183] = v183
		v185 := v184
		vals[185] = v185
		v187 := v116
		vals[187] = v187
		v188 := v187
		vals[188] = v188
		v190 := v189
		vals[190] = v190
		v192 := v118
		vals[192] = v192
		v193 := v192
		vals[193] = v193
		v195 := v194
		vals[195] = v195
		v197 := v120
		vals[197] = v197
		v198 := v197
		vals[198] = v198
		v200 := v199
		vals[200] = v200
		v202 := v122
		vals[202] = v202
		v203 := v202
		vals[203] = v203
		v205 := v204
		vals[205] = v205
		v207 := v124
		vals[207] = v207
		v208 := v207
		vals[208] = v208
		v210 := v209
		vals[210] = v210
		v212 := v126
		vals[212] = v212
		v213 := v212
		vals[213] = v213
		v215 := v214
		vals[215] = v215
		var v218 uint64
		if v13 != 0 {
			v218 = v217
		} else {
			v218 = v4
		}
		vals[218] = v218
		v219 := v218
		vals[219] = v219
		vals[222] = 0x3
		v224 := v223
		vals[224] = v224
		var v225 uint64
		if v220 != 0 {
			v225 = 0x3
		} else {
			v225 = 0x3
		}
		vals[225] = v225
		v226 := v224
		vals[226] = v226
		var v227 uint64
		if v25 != 0 {
			v227 = 0x2
		} else {
			v227 = 0x3
		}
		vals[227] = v227
		v228 := v226
		vals[228] = v228
		v229 := v228
		vals[229] = v229
		vals[230] = 0x0
		var v231 uint64
		if v229 == 0x1 {
			v231 = 1
		}
		vals[231] = v231
		vals[232] = 0x0
		v236 := v234
		vals[236] = v236
		var v237 uint64
		if v229 == 0x2 {
			v237 = 1
		}
		vals[237] = v237
		vals[238] = 0x0
		v241 := v239
		vals[241] = v241
		var v242 uint64
		if v229 == 0x3 {
			v242 = 1
		}
		vals[242] = v242
		vals[243] = 0x0
		v246 := v244
		vals[246] = v246
		v247 := v231
		vals[247] = v247
		var v250 uint64
		if v247 != 0 {
			v250 = v249
		} else {
			v250 = v248
		}
		vals[250] = v250
		var v251 uint64
		if v229 == 0x4 {
			v251 = 1
		}
		vals[251] = v251
		v252 := v251
		vals[252] = v252
		var v255 uint64
		if v252 != 0 {
			v255 = v254
		} else {
			v255 = v253
		}
		vals[255] = v255
		var v256 uint64
		if v229 == 0x5 {
			v256 = 1
		}
		vals[256] = v256
		vals[257] = 0x0
		v260 := v258
		vals[260] = v260
		v263 := v261
		vals[263] = v263
		v266 := v264
		vals[266] = v266
		v269 := v267
		vals[269] = v269
		var v272 uint64
		if v14 != 0 {
			v272 = v271
		} else {
			v272 = v270
		}
		vals[272] = v272
		var v275 uint64
		if v14 != 0 {
			v275 = v274
		} else {
			v275 = v273
		}
		vals[275] = v275
		var v278 uint64
		if v14 != 0 {
			v278 = v277
		} else {
			v278 = v276
		}
		vals[278] = v278
		v281 := v279
		vals[281] = v281
		v284 := v282
		vals[284] = v284
		v287 := v285
		vals[287] = v287
	case 0x4:
		vals[10] = 0x0
		vals[12] = 0x0
		vals[13] = 0x0
		vals[14] = 0x0
		v22 := v21
		vals[22] = v22
		vals[24] = 0x0
		vals[26] = 0x0
		v34 := v33
		vals[34] = v34
		vals[95] = 0x0
		v96 := v36
		vals[96] = v96
		v97 := v37
		vals[97] = v97
		v98 := v38
		vals[98] = v98
		v99 := v39
		vals[99] = v99
		v100 := v40
		vals[100] = v100
		v101 := v41
		vals[101] = v101
		v102 := v42
		vals[102] = v102
		v103 := v43
		vals[103] = v103
		v104 := v44
		vals[104] = v104
		v105 := v45
		vals[105] = v105
		v106 := v46
		vals[106] = v106
		v107 := v47
		vals[107] = v107
		v108 := v48
		vals[108] = v108
		v109 := v49
		vals[109] = v109
		v110 := v50
		vals[110] = v110
		v111 := v51
		vals[111] = v111
		v175 := v112
		vals[175] = v175
		v176 := v175
		vals[176] = v176
		v178 := v113
		vals[178] = v178
		vals[181] = 0x1
		v182 := v114
		vals[182] = v182
		v183 := v182
		vals[183] = v183
		v185 := v115
		vals[185] = v185
		v187 := v116
		vals[187] = v187
		v188 := v187
		vals[188] = v188
		v190 := v117
		vals[190] = v190
		v192 := v118
		vals[192] = v192
		v193 := v192
		vals[193] = v193
		v195 := v119
		vals[195] = v195
		v197 := v120
		vals[197] = v197
		v198 := v197
		vals[198] = v198
		v200 := v121
		vals[200] = v200
		v202 := v122
		vals[202] = v202
		v203 := v202
		vals[203] = v203
		v205 := v123
		vals[205] = v205
		v207 := v124
		vals[207] = v207
		v208 := v207
		vals[208] = v208
		v210 := v125
		vals[210] = v210
		v212 := v126
		vals[212] = v212
		v213 := v212
		vals[213] = v213
		v215 := v127
		vals[215] = v215
		v218 := v4
		vals[218] = v218
		v219 := v218
		vals[219] = v219
		vals[222] = 0x5
		vals[224] = 0x5
		var v225 uint64
		if v220 != 0 {
			v225 = 0x3
		} else {
			v225 = 0x4
		}
		vals[225] = v225
		vals[226] = 0x5
		var v227 uint64
		if v25 != 0 {
			v227 = 0x2
		} else {
			v227 = 0x4
		}
		vals[227] = v227
		vals[228] = 0x5
		vals[229] = 0x5
		vals[230] = 0x0
		vals[231] = 0x0
		vals[232] = 0x0
		v236 := v234
		vals[236] = v236
		vals[237] = 0x0
		vals[238] = 0x0
		v241 := v239
		vals[241] = v241
		vals[242] = 0x0
		vals[243] = 0x0
		v246 := v244
		vals[246] = v246
		vals[247] = 0x0
		v250 := v248
		vals[250] = v250
		vals[251] = 0x0
		vals[252] = 0x0
		v255 := v253
		vals[255] = v255
		vals[256] = 0x1
		vals[257] = 0x1
		v260 := v259
		vals[260] = v260
		v263 := v261
		vals[263] = v263
		v266 := v264
		vals[266] = v266
		v269 := v267
		vals[269] = v269
		v272 := v270
		vals[272] = v272
		v275 := v273
		vals[275] = v275
		v278 := v276
		vals[278] = v278
		v281 := v279
		vals[281] = v281
		v284 := v282
		vals[284] = v284
		v287 := v285
		vals[287] = v287
	case 0x5:
		vals[10] = 0x0
		vals[12] = 0x0
		vals[13] = 0x0
		vals[14] = 0x0
		v22 := v21
		vals[22] = v22
		vals[24] = 0x0
		vals[26] = 0x0
		v34 := v33
		vals[34] = v34
		vals[95] = 0x0
		v96 := v36
		vals[96] = v96
		v97 := v37
		vals[97] = v97
		v98 := v38
		vals[98] = v98
		v99 := v39
		vals[99] = v99
		v100 := v40
		vals[100] = v100
		v101 := v41
		vals[101] = v101
		v102 := v42
		vals[102] = v102
		v103 := v43
		vals[103] = v103
		v104 := v44
		vals[104] = v104
		v105 := v45
		vals[105] = v105
		v106 := v46
		vals[106] = v106
		v107 := v47
		vals[107] = v107
		v108 := v48
		vals[108] = v108
		v109 := v49
		vals[109] = v109
		v110 := v50
		vals[110] = v110
		v111 := v51
		vals[111] = v111
		v175 := v112
		vals[175] = v175
		v176 := v175
		vals[176] = v176
		v178 := v113
		vals[178] = v178
		vals[181] = 0x0
		v182 := v114
		vals[182] = v182
		v183 := v182
		vals[183] = v183
		v185 := v115
		vals[185] = v185
		v187 := v116
		vals[187] = v187
		v188 := v187
		vals[188] = v188
		v190 := v117
		vals[190] = v190
		v192 := v118
		vals[192] = v192
		v193 := v192
		vals[193] = v193
		v195 := v119
		vals[195] = v195
		v197 := v120
		vals[197] = v197
		v198 := v197
		vals[198] = v198
		v200 := v121
		vals[200] = v200
		v202 := v122
		vals[202] = v202
		v203 := v202
		vals[203] = v203
		v205 := v123
		vals[205] = v205
		v207 := v124
		vals[207] = v207
		v208 := v207
		vals[208] = v208
		v210 := v125
		vals[210] = v210
		v212 := v126
		vals[212] = v212
		v213 := v212
		vals[213] = v213
		v215 := v127
		vals[215] = v215
		v218 := v4
		vals[218] = v218
		v219 := v218
		vals[219] = v219
		vals[222] = 0x5
		vals[224] = 0x5
		var v225 uint64
		if v220 != 0 {
			v225 = 0x3
		} else {
			v225 = 0x5
		}
		vals[225] = v225
		vals[226] = 0x5
		var v227 uint64
		if v25 != 0 {
			v227 = 0x2
		} else {
			v227 = 0x5
		}
		vals[227] = v227
		vals[228] = 0x5
		vals[229] = 0x5
		vals[230] = 0x1
		vals[231] = 0x0
		vals[232] = 0x0
		v236 := v234
		vals[236] = v236
		vals[237] = 0x0
		vals[238] = 0x0
		v241 := v239
		vals[241] = v241
		vals[242] = 0x0
		vals[243] = 0x0
		v246 := v244
		vals[246] = v246
		vals[247] = 0x0
		v250 := v248
		vals[250] = v250
		vals[251] = 0x0
		vals[252] = 0x0
		v255 := v253
		vals[255] = v255
		vals[256] = 0x1
		vals[257] = 0x0
		v260 := v258
		vals[260] = v260
		v263 := v261
		vals[263] = v263
		v266 := v264
		vals[266] = v266
		v269 := v267
		vals[269] = v269
		v272 := v270
		vals[272] = v272
		v275 := v273
		vals[275] = v275
		v278 := v276
		vals[278] = v278
		v281 := v279
		vals[281] = v281
		v284 := v282
		vals[284] = v284
		v287 := v285
		vals[287] = v287
	default:
		var v10 uint64
		if v3 == 0x0 {
			v10 = 1
		}
		vals[10] = v10
		var v12 uint64
		if v3 == 0x3 {
			v12 = 1
		}
		vals[12] = v12
		v13 := v12 & v6
		vals[13] = v13
		v14 := (v10 | v13)
		vals[14] = v14
		var v22 uint64
		if v14 != 0 {
			v22 = 0xf
		} else {
			v22 = v21
		}
		vals[22] = v22
		var v24 uint64
		if v3 == 0x1 {
			v24 = 1
		}
		vals[24] = v24
		v26 := v24 & v25
		vals[26] = v26
		var v34 uint64
		if v26 != 0 {
			v34 = 0x3f
		} else {
			v34 = v33
		}
		vals[34] = v34
		var v95 uint64
		if v3 == 0x2 {
			v95 = 1
		}
		vals[95] = v95
		var v96 uint64
		if v95 != 0 {
			v96 = v37
		} else {
			v96 = v36
		}
		vals[96] = v96
		var v97 uint64
		if v95 != 0 {
			v97 = v38
		} else {
			v97 = v37
		}
		vals[97] = v97
		var v98 uint64
		if v95 != 0 {
			v98 = v39
		} else {
			v98 = v38
		}
		vals[98] = v98
		var v99 uint64
		if v95 != 0 {
			v99 = v40
		} else {
			v99 = v39
		}
		vals[99] = v99
		var v100 uint64
		if v95 != 0 {
			v100 = v41
		} else {
			v100 = v40
		}
		vals[100] = v100
		var v101 uint64
		if v95 != 0 {
			v101 = v42
		} else {
			v101 = v41
		}
		vals[101] = v101
		var v102 uint64
		if v95 != 0 {
			v102 = v43
		} else {
			v102 = v42
		}
		vals[102] = v102
		var v103 uint64
		if v95 != 0 {
			v103 = v44
		} else {
			v103 = v43
		}
		vals[103] = v103
		var v104 uint64
		if v95 != 0 {
			v104 = v45
		} else {
			v104 = v44
		}
		vals[104] = v104
		var v105 uint64
		if v95 != 0 {
			v105 = v46
		} else {
			v105 = v45
		}
		vals[105] = v105
		var v106 uint64
		if v95 != 0 {
			v106 = v47
		} else {
			v106 = v46
		}
		vals[106] = v106
		var v107 uint64
		if v95 != 0 {
			v107 = v48
		} else {
			v107 = v47
		}
		vals[107] = v107
		var v108 uint64
		if v95 != 0 {
			v108 = v49
		} else {
			v108 = v48
		}
		vals[108] = v108
		var v109 uint64
		if v95 != 0 {
			v109 = v50
		} else {
			v109 = v49
		}
		vals[109] = v109
		var v110 uint64
		if v95 != 0 {
			v110 = v51
		} else {
			v110 = v50
		}
		vals[110] = v110
		var v111 uint64
		if v95 != 0 {
			v111 = v93
		} else {
			v111 = v51
		}
		vals[111] = v111
		var v175 uint64
		if v95 != 0 {
			v175 = v173
		} else {
			v175 = v112
		}
		vals[175] = v175
		var v176 uint64
		if v24 != 0 {
			v176 = v113
		} else {
			v176 = v175
		}
		vals[176] = v176
		var v178 uint64
		if v12 != 0 {
			v178 = v177
		} else {
			v178 = v113
		}
		vals[178] = v178
		var v181 uint64
		if v3 == 0x4 {
			v181 = 1
		}
		vals[181] = v181
		var v182 uint64
		if v95 != 0 {
			v182 = v112
		} else {
			v182 = v114
		}
		vals[182] = v182
		var v183 uint64
		if v24 != 0 {
			v183 = v115
		} else {
			v183 = v182
		}
		vals[183] = v183
		var v185 uint64
		if v12 != 0 {
			v185 = v184
		} else {
			v185 = v115
		}
		vals[185] = v185
		var v187 uint64
		if v95 != 0 {
			v187 = v114
		} else {
			v187 = v116
		}
		vals[187] = v187
		var v188 uint64
		if v24 != 0 {
			v188 = v117
		} else {
			v188 = v187
		}
		vals[188] = v188
		var v190 uint64
		if v12 != 0 {
			v190 = v189
		} else {
			v190 = v117
		}
		vals[190] = v190
		var v192 uint64
		if v95 != 0 {
			v192 = v116
		} else {
			v192 = v118
		}
		vals[192] = v192
		var v193 uint64
		if v24 != 0 {
			v193 = v119
		} else {
			v193 = v192
		}
		vals[193] = v193
		var v195 uint64
		if v12 != 0 {
			v195 = v194
		} else {
			v195 = v119
		}
		vals[195] = v195
		var v197 uint64
		if v95 != 0 {
			v197 = v174
		} else {
			v197 = v120
		}
		vals[197] = v197
		var v198 uint64
		if v24 != 0 {
			v198 = v121
		} else {
			v198 = v197
		}
		vals[198] = v198
		var v200 uint64
		if v12 != 0 {
			v200 = v199
		} else {
			v200 = v121
		}
		vals[200] = v200
		var v202 uint64
		if v95 != 0 {
			v202 = v120
		} else {
			v202 = v122
		}
		vals[202] = v202
		var v203 uint64
		if v24 != 0 {
			v203 = v123
		} else {
			v203 = v202
		}
		vals[203] = v203
		var v205 uint64
		if v12 != 0 {
			v205 = v204
		} else {
			v205 = v123
		}
		vals[205] = v205
		var v207 uint64
		if v95 != 0 {
			v207 = v122
		} else {
			v207 = v124
		}
		vals[207] = v207
		var v208 uint64
		if v24 != 0 {
			v208 = v125
		} else {
			v208 = v207
		}
		vals[208] = v208
		var v210 uint64
		if v12 != 0 {
			v210 = v209
		} else {
			v210 = v125
		}
		vals[210] = v210
		var v212 uint64
		if v95 != 0 {
			v212 = v124
		} else {
			v212 = v126
		}
		vals[212] = v212
		var v213 uint64
		if v24 != 0 {
			v213 = v127
		} else {
			v213 = v212
		}
		vals[213] = v213
		var v215 uint64
		if v12 != 0 {
			v215 = v214
		} else {
			v215 = v127
		}
		vals[215] = v215
		var v218 uint64
		if v13 != 0 {
			v218 = v217
		} else {
			v218 = v4
		}
		vals[218] = v218
		var v219 uint64
		if v10 != 0 {
			v219 = v7
		} else {
			v219 = v218
		}
		vals[219] = v219
		var v222 uint64
		if v181 != 0 {
			v222 = 0x5
		} else {
			v222 = v3
		}
		vals[222] = v222
		var v224 uint64
		if v12 != 0 {
			v224 = v223
		} else {
			v224 = v222
		}
		vals[224] = v224
		var v225 uint64
		if v220 != 0 {
			v225 = 0x3
		} else {
			v225 = v3
		}
		vals[225] = v225
		var v226 uint64
		if v95 != 0 {
			v226 = v225
		} else {
			v226 = v224
		}
		vals[226] = v226
		var v227 uint64
		if v25 != 0 {
			v227 = 0x2
		} else {
			v227 = v3
		}
		vals[227] = v227
		var v228 uint64
		if v24 != 0 {
			v228 = v227
		} else {
			v228 = v226
		}
		vals[228] = v228
		var v229 uint64
		if v10 != 0 {
			v229 = 0x1
		} else {
			v229 = v228
		}
		vals[229] = v229
		var v230 uint64
		if v3 == 0x5 {
			v230 = 1
		}
		vals[230] = v230
		var v231 uint64
		if v229 == 0x1 {
			v231 = 1
		}
		vals[231] = v231
		v232 := v10 & v231
		vals[232] = v232
		var v236 uint64
		if v232 != 0 {
			v236 = v235
		} else {
			v236 = v234
		}
		vals[236] = v236
		var v237 uint64
		if v229 == 0x2 {
			v237 = 1
		}
		vals[237] = v237
		v238 := v24 & v237
		vals[238] = v238
		var v241 uint64
		if v238 != 0 {
			v241 = v240
		} else {
			v241 = v239
		}
		vals[241] = v241
		var v242 uint64
		if v229 == 0x3 {
			v242 = 1
		}
		vals[242] = v242
		v243 := v95 & v242
		vals[243] = v243
		var v246 uint64
		if v243 != 0 {
			v246 = v245
		} else {
			v246 = v244
		}
		vals[246] = v246
		v247 := v12 & v231
		vals[247] = v247
		var v250 uint64
		if v247 != 0 {
			v250 = v249
		} else {
			v250 = v248
		}
		vals[250] = v250
		var v251 uint64
		if v229 == 0x4 {
			v251 = 1
		}
		vals[251] = v251
		v252 := v12 & v251
		vals[252] = v252
		var v255 uint64
		if v252 != 0 {
			v255 = v254
		} else {
			v255 = v253
		}
		vals[255] = v255
		var v256 uint64
		if v229 == 0x5 {
			v256 = 1
		}
		vals[256] = v256
		v257 := v181 & v256
		vals[257] = v257
		var v260 uint64
		if v257 != 0 {
			v260 = v259
		} else {
			v260 = v258
		}
		vals[260] = v260
		var v263 uint64
		if v10 != 0 {
			v263 = v262
		} else {
			v263 = v261
		}
		vals[263] = v263
		var v266 uint64
		if v10 != 0 {
			v266 = v265
		} else {
			v266 = v264
		}
		vals[266] = v266
		var v269 uint64
		if v10 != 0 {
			v269 = v268
		} else {
			v269 = v267
		}
		vals[269] = v269
		var v272 uint64
		if v14 != 0 {
			v272 = v271
		} else {
			v272 = v270
		}
		vals[272] = v272
		var v275 uint64
		if v14 != 0 {
			v275 = v274
		} else {
			v275 = v273
		}
		vals[275] = v275
		var v278 uint64
		if v14 != 0 {
			v278 = v277
		} else {
			v278 = v276
		}
		vals[278] = v278
		var v281 uint64
		if v26 != 0 {
			v281 = v280
		} else {
			v281 = v279
		}
		vals[281] = v281
		var v284 uint64
		if v26 != 0 {
			v284 = v283
		} else {
			v284 = v282
		}
		vals[284] = v284
		var v287 uint64
		if v26 != 0 {
			v287 = v286
		} else {
			v287 = v285
		}
		vals[287] = v287
	}
	done := vals[230] != 0
	if vals[181] != 0 {
		if addr := vals[179]; addr < uint64(len(m1)) {
			m1[addr] = vals[113]
		}
	}
	if vals[181] != 0 {
		if addr := vals[186]; addr < uint64(len(m1)) {
			m1[addr] = vals[115]
		}
	}
	if vals[181] != 0 {
		if addr := vals[191]; addr < uint64(len(m1)) {
			m1[addr] = vals[117]
		}
	}
	if vals[181] != 0 {
		if addr := vals[196]; addr < uint64(len(m1)) {
			m1[addr] = vals[119]
		}
	}
	if vals[181] != 0 {
		if addr := vals[201]; addr < uint64(len(m1)) {
			m1[addr] = vals[121]
		}
	}
	if vals[181] != 0 {
		if addr := vals[206]; addr < uint64(len(m1)) {
			m1[addr] = vals[123]
		}
	}
	if vals[181] != 0 {
		if addr := vals[211]; addr < uint64(len(m1)) {
			m1[addr] = vals[125]
		}
	}
	if vals[181] != 0 {
		if addr := vals[216]; addr < uint64(len(m1)) {
			m1[addr] = vals[127]
		}
	}
	l0 := vals[229] & 0x7
	l1 := vals[219] & 0xffff
	l2 := vals[22] & 0x1f
	l3 := vals[34] & 0x7f
	l4 := vals[96] & 0xffffffff
	l5 := vals[97] & 0xffffffff
	l6 := vals[98] & 0xffffffff
	l7 := vals[99] & 0xffffffff
	l8 := vals[100] & 0xffffffff
	l9 := vals[101] & 0xffffffff
	l10 := vals[102] & 0xffffffff
	l11 := vals[103] & 0xffffffff
	l12 := vals[104] & 0xffffffff
	l13 := vals[105] & 0xffffffff
	l14 := vals[106] & 0xffffffff
	l15 := vals[107] & 0xffffffff
	l16 := vals[108] & 0xffffffff
	l17 := vals[109] & 0xffffffff
	l18 := vals[110] & 0xffffffff
	l19 := vals[111] & 0xffffffff
	l20 := vals[176] & 0xffffffff
	l21 := vals[178] & 0xffffffff
	l22 := vals[183] & 0xffffffff
	l23 := vals[185] & 0xffffffff
	l24 := vals[188] & 0xffffffff
	l25 := vals[190] & 0xffffffff
	l26 := vals[193] & 0xffffffff
	l27 := vals[195] & 0xffffffff
	l28 := vals[198] & 0xffffffff
	l29 := vals[200] & 0xffffffff
	l30 := vals[203] & 0xffffffff
	l31 := vals[205] & 0xffffffff
	l32 := vals[208] & 0xffffffff
	l33 := vals[210] & 0xffffffff
	l34 := vals[213] & 0xffffffff
	l35 := vals[215] & 0xffffffff
	l36 := vals[236] & 0xffffff
	l37 := vals[241] & 0xffffff
	l38 := vals[246] & 0xffffff
	l39 := vals[250] & 0xffffff
	l40 := vals[255] & 0xffffff
	l41 := vals[260] & 0xffffff
	l42 := vals[263] & 0xffffff
	l43 := vals[266] & 0xffffff
	l44 := vals[269] & 0xffffff
	l45 := vals[272] & 0xffffff
	l46 := vals[275] & 0xffffff
	l47 := vals[278] & 0xffffff
	l48 := vals[281] & 0xffffff
	l49 := vals[284] & 0xffffff
	l50 := vals[287] & 0xffffff
	vals[3] = l0
	vals[4] = l1
	vals[16] = l2
	vals[28] = l3
	vals[36] = l4
	vals[37] = l5
	vals[38] = l6
	vals[39] = l7
	vals[40] = l8
	vals[41] = l9
	vals[42] = l10
	vals[43] = l11
	vals[44] = l12
	vals[45] = l13
	vals[46] = l14
	vals[47] = l15
	vals[48] = l16
	vals[49] = l17
	vals[50] = l18
	vals[51] = l19
	vals[112] = l20
	vals[113] = l21
	vals[114] = l22
	vals[115] = l23
	vals[116] = l24
	vals[117] = l25
	vals[118] = l26
	vals[119] = l27
	vals[120] = l28
	vals[121] = l29
	vals[122] = l30
	vals[123] = l31
	vals[124] = l32
	vals[125] = l33
	vals[126] = l34
	vals[127] = l35
	vals[234] = l36
	vals[239] = l37
	vals[244] = l38
	vals[248] = l39
	vals[253] = l40
	vals[258] = l41
	vals[261] = l42
	vals[264] = l43
	vals[267] = l44
	vals[270] = l45
	vals[273] = l46
	vals[276] = l47
	vals[279] = l48
	vals[282] = l49
	vals[285] = l50
	return cycles + 1, done
}

func step_sha_pruned(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[287]
	m0 := mems[0]
	m1 := mems[1]
	m2 := mems[2]
	v0 := vals[0]
	v5 := vals[5]
	v11 := vals[11]
	v17 := vals[17]
	v51 := vals[51]
	v52 := vals[52]
	v54 := vals[54]
	v56 := vals[56]
	v58 := vals[58]
	v60 := vals[60]
	v62 := vals[62]
	v64 := vals[64]
	v66 := vals[66]
	v68 := vals[68]
	v70 := vals[70]
	v72 := vals[72]
	v74 := vals[74]
	v76 := vals[76]
	v78 := vals[78]
	v80 := vals[80]
	v127 := vals[127]
	v128 := vals[128]
	v129 := vals[129]
	v130 := vals[130]
	v147 := vals[147]
	v150 := vals[150]
	v172 := vals[172]
	v174 := vals[174]
	v185 := vals[185]
	v190 := vals[190]
	v195 := vals[195]
	v196 := vals[196]
	v201 := vals[201]
	v207 := vals[207]
	v212 := vals[212]
	v217 := vals[217]
	v222 := vals[222]
	v228 := vals[228]
	v233 := vals[233]
	v238 := vals[238]
	v242 := vals[242]
	v247 := vals[247]
	v252 := vals[252]
	v255 := vals[255]
	v258 := vals[258]
	v261 := vals[261]
	v264 := vals[264]
	v267 := vals[267]
	v270 := vals[270]
	v273 := vals[273]
	v276 := vals[276]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v46 uint64
		if v11 != 0x0 {
			v46 = 1
		}
		v48 := (v11 - 0x1) & 0x7f
		var v49 uint64
		if v46 != 0 {
			v49 = v48
		} else {
			v49 = v11
		}
		switch v0 {
		case 0x0:
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0xffff
			}
			v32 := (v30 - 0x1) & 0xffff
			v226 := (v222 + 0x1) & 0xffffff
			v253 := (v252 + 0x1) & 0xffffff
			v256 := (v255 + v32) & 0xffffff
			v259 := (v258 + v17) & 0xffffff
			v262 := (v261 + 0x1) & 0xffffff
			v265 := (v264 + 0xf) & 0xffffff
			v268 := (v267 + v5) & 0xffffff
			v36 := v32
			v50 := v49
			v53 := v51
			v55 := v52
			v57 := v54
			v59 := v56
			v61 := v58
			v63 := v60
			v65 := v62
			v67 := v64
			v69 := v66
			v71 := v68
			v73 := v70
			v75 := v72
			v77 := v74
			v79 := v76
			v81 := v78
			v126 := v80
			v181 := v127
			v182 := v181
			v184 := v128
			v186 := v172
			v187 := v186
			v189 := v185
			v191 := v174
			v192 := v191
			v194 := v190
			v197 := v195
			v198 := v197
			v200 := v196
			v203 := v130
			v204 := v203
			v206 := v201
			v208 := v147
			v209 := v208
			v211 := v207
			v213 := v150
			v214 := v213
			v216 := v212
			v218 := v129
			v219 := v218
			v221 := v217
			v227 := v226
			v232 := v228
			v237 := v233
			v241 := v238
			v246 := v242
			v251 := v247
			v254 := v253
			v257 := v256
			v260 := v259
			v263 := v262
			v266 := v265
			v269 := v268
			v272 := v270
			v275 := v273
			v278 := v276
			n1 := v36
			n3 := v50
			n4 := v53
			n5 := v55
			n6 := v57
			n7 := v59
			n8 := v61
			n9 := v63
			n10 := v65
			n11 := v67
			n12 := v69
			n13 := v71
			n14 := v73
			n15 := v75
			n16 := v77
			n17 := v79
			n18 := v81
			n19 := v126
			n20 := v182
			n21 := v184
			n22 := v187
			n23 := v189
			n24 := v192
			n25 := v194
			n26 := v198
			n27 := v200
			n28 := v204
			n29 := v206
			n30 := v209
			n31 := v211
			n32 := v214
			n33 := v216
			n34 := v219
			n35 := v221
			n36 := v227
			n37 := v232
			n38 := v237
			n39 := v241
			n40 := v246
			n41 := v251
			n42 := v254
			n43 := v257
			n44 := v260
			n45 := v263
			n46 := v266
			n47 := v269
			n48 := v272
			n49 := v275
			n50 := v278
			v0 = 0x1
			v17 = n1
			v5 = 0xf
			v11 = n3
			v51 = n4
			v52 = n5
			v54 = n6
			v56 = n7
			v58 = n8
			v60 = n9
			v62 = n10
			v64 = n11
			v66 = n12
			v68 = n13
			v70 = n14
			v72 = n15
			v74 = n16
			v76 = n17
			v78 = n18
			v80 = n19
			v127 = n20
			v128 = n21
			v172 = n22
			v185 = n23
			v174 = n24
			v190 = n25
			v195 = n26
			v196 = n27
			v130 = n28
			v201 = n29
			v147 = n30
			v207 = n31
			v150 = n32
			v212 = n33
			v129 = n34
			v217 = n35
			v222 = n36
			v228 = n37
			v233 = n38
			v238 = n39
			v242 = n40
			v247 = n41
			v252 = n42
			v255 = n43
			v258 = n44
			v261 = n45
			v264 = n46
			v267 = n47
			v270 = n48
			v273 = n49
			v276 = n50
		case 0x1:
			var v7 uint64
			if v5 == 0x0 {
				v7 = 1
			}
			var v39 uint64
			if v5 != 0x0 {
				v39 = 1
			}
			v41 := (v5 - 0x1) & 0x1f
			var v42 uint64
			if v39 != 0 {
				v42 = v41
			} else {
				v42 = v5
			}
			v231 := (v228 + 0x1) & 0xffffff
			v271 := (v270 + 0x1) & 0xffffff
			v274 := (v273 + 0x3f) & 0xffffff
			v277 := (v276 + v11) & 0xffffff
			var v9 uint64
			if v7 != 0 {
				v9 = 0x2
			} else {
				v9 = 0x1
			}
			v27 := v9
			v28 := v27
			v35 := v17
			v36 := v35
			v43 := v42
			v44 := v7
			var v50 uint64
			if v44 != 0 {
				v50 = 0x3f
			} else {
				v50 = v49
			}
			v53 := v51
			v55 := v52
			v57 := v54
			v59 := v56
			v61 := v58
			v63 := v60
			v65 := v62
			v67 := v64
			v69 := v66
			v71 := v68
			v73 := v70
			v75 := v72
			v77 := v74
			v79 := v76
			v81 := v78
			v126 := v80
			v182 := v128
			v184 := v128
			v187 := v185
			v189 := v185
			v192 := v190
			v194 := v190
			v198 := v196
			v200 := v196
			v204 := v201
			v206 := v201
			v209 := v207
			v211 := v207
			v214 := v212
			v216 := v212
			v219 := v217
			v221 := v217
			v227 := v222
			var v229 uint64
			if v28 == 0x2 {
				v229 = 1
			}
			v230 := v229
			var v232 uint64
			if v230 != 0 {
				v232 = v231
			} else {
				v232 = v228
			}
			v237 := v233
			v241 := v238
			v246 := v242
			v251 := v247
			v254 := v252
			v257 := v255
			v260 := v258
			v263 := v261
			v266 := v264
			v269 := v267
			var v272 uint64
			if v44 != 0 {
				v272 = v271
			} else {
				v272 = v270
			}
			var v275 uint64
			if v44 != 0 {
				v275 = v274
			} else {
				v275 = v273
			}
			var v278 uint64
			if v44 != 0 {
				v278 = v277
			} else {
				v278 = v276
			}
			n0 := v28
			n1 := v36
			n2 := v43
			n3 := v50
			n4 := v53
			n5 := v55
			n6 := v57
			n7 := v59
			n8 := v61
			n9 := v63
			n10 := v65
			n11 := v67
			n12 := v69
			n13 := v71
			n14 := v73
			n15 := v75
			n16 := v77
			n17 := v79
			n18 := v81
			n19 := v126
			n20 := v182
			n21 := v184
			n22 := v187
			n23 := v189
			n24 := v192
			n25 := v194
			n26 := v198
			n27 := v200
			n28 := v204
			n29 := v206
			n30 := v209
			n31 := v211
			n32 := v214
			n33 := v216
			n34 := v219
			n35 := v221
			n36 := v227
			n37 := v232
			n38 := v237
			n39 := v241
			n40 := v246
			n41 := v251
			n42 := v254
			n43 := v257
			n44 := v260
			n45 := v263
			n46 := v266
			n47 := v269
			n48 := v272
			n49 := v275
			n50 := v278
			v0 = n0
			v17 = n1
			v5 = n2
			v11 = n3
			v51 = n4
			v52 = n5
			v54 = n6
			v56 = n7
			v58 = n8
			v60 = n9
			v62 = n10
			v64 = n11
			v66 = n12
			v68 = n13
			v70 = n14
			v72 = n15
			v74 = n16
			v76 = n17
			v78 = n18
			v80 = n19
			v127 = n20
			v128 = n21
			v172 = n22
			v185 = n23
			v174 = n24
			v190 = n25
			v195 = n26
			v196 = n27
			v130 = n28
			v201 = n29
			v147 = n30
			v207 = n31
			v150 = n32
			v212 = n33
			v129 = n34
			v217 = n35
			v222 = n36
			v228 = n37
			v233 = n38
			v238 = n39
			v242 = n40
			v247 = n41
			v252 = n42
			v255 = n43
			v258 = n44
			v261 = n45
			v264 = n46
			v267 = n47
			v270 = n48
			v273 = n49
			v276 = n50
		case 0x2:
			var v13 uint64
			if v11 == 0x0 {
				v13 = 1
			}
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0xffff
			}
			v32 := (v30 - 0x1) & 0xffff
			var v39 uint64
			if v5 != 0x0 {
				v39 = 1
			}
			v41 := (v5 - 0x1) & 0x1f
			var v42 uint64
			if v39 != 0 {
				v42 = v41
			} else {
				v42 = v5
			}
			v82 := (0x3f - v11) & 0x7f
			var v84 uint64
			if v82 < 0x10 {
				v84 = 1
			}
			v85 := (v32 - v17) & 0xffff
			v87 := (v85 << 4) & 0xffff
			v88 := v82
			v89 := (v87 + v88) & 0xffff
			v90 := (v89 + 0x1) & 0xffff
			v92 := v90 & 0x3ff
			var v93 uint64
			if addr := uint64(v92); addr < uint64(len(m0)) {
				v93 = m0[addr] & 0xffffffff
			}
			v95 := (v78 >> 17)
			v97 := (v78 << 15) & 0xffffffff
			v98 := (v95 | v97)
			v100 := (v78 >> 19)
			v102 := (v78 << 13) & 0xffffffff
			v103 := (v100 | v102)
			v104 := (v98 ^ v103)
			v106 := (v78 >> 10)
			v107 := (v104 ^ v106)
			v108 := (v107 + v68) & 0xffffffff
			v110 := (v52 >> 7)
			v112 := (v52 << 25) & 0xffffffff
			v113 := (v110 | v112)
			v115 := (v52 >> 18)
			v117 := (v52 << 14) & 0xffffffff
			v118 := (v115 | v117)
			v119 := (v113 ^ v118)
			v121 := (v52 >> 3)
			v122 := (v119 ^ v121)
			v123 := (v108 + v122) & 0xffffffff
			v124 := (v123 + v51) & 0xffffffff
			var v125 uint64
			if v84 != 0 {
				v125 = v93
			} else {
				v125 = v124
			}
			v132 := (v130 >> 6)
			v134 := (v130 << 26) & 0xffffffff
			v135 := (v132 | v134)
			v137 := (v130 >> 11)
			v139 := (v130 << 21) & 0xffffffff
			v140 := (v137 | v139)
			v141 := (v135 ^ v140)
			v142 := (v130 >> 25)
			v143 := (v130 << 7) & 0xffffffff
			v144 := (v142 | v143)
			v145 := (v141 ^ v144)
			v146 := (v129 + v145) & 0xffffffff
			v148 := v130 & v147
			v149 := ^v130 & 0xffffffff
			v151 := v149 & v150
			v152 := (v148 ^ v151)
			v153 := (v146 + v152) & 0xffffffff
			v154 := v82 & 0x3f
			var v155 uint64
			if addr := uint64(v154); addr < uint64(len(m1)) {
				v155 = m1[addr] & 0xffffffff
			}
			v156 := (v153 + v155) & 0xffffffff
			v157 := (v156 + v125) & 0xffffffff
			v159 := (v127 >> 2)
			v161 := (v127 << 30) & 0xffffffff
			v162 := (v159 | v161)
			v163 := (v127 >> 13)
			v164 := (v127 << 19) & 0xffffffff
			v165 := (v163 | v164)
			v166 := (v162 ^ v165)
			v168 := (v127 >> 22)
			v169 := (v127 << 10) & 0xffffffff
			v170 := (v168 | v169)
			v171 := (v166 ^ v170)
			v173 := v127 & v172
			v175 := v127 & v174
			v176 := (v173 ^ v175)
			v177 := v172 & v174
			v178 := (v176 ^ v177)
			v179 := (v171 + v178) & 0xffffffff
			v180 := (v157 + v179) & 0xffffffff
			v202 := (v195 + v157) & 0xffffffff
			v236 := (v233 + 0x1) & 0xffffff
			var v15 uint64
			if v13 != 0 {
				v15 = 0x3
			} else {
				v15 = 0x2
			}
			v26 := v15
			v27 := v26
			v28 := v27
			v35 := v17
			v36 := v35
			v43 := v42
			v50 := v49
			v53 := v52
			v55 := v54
			v57 := v56
			v59 := v58
			v61 := v60
			v63 := v62
			v65 := v64
			v67 := v66
			v69 := v68
			v71 := v70
			v73 := v72
			v75 := v74
			v77 := v76
			v79 := v78
			v81 := v80
			v126 := v125
			v181 := v180
			v182 := v181
			v184 := v128
			v186 := v127
			v187 := v186
			v189 := v185
			v191 := v172
			v192 := v191
			v194 := v190
			v197 := v174
			v198 := v197
			v200 := v196
			v203 := v202
			v204 := v203
			v206 := v201
			v208 := v130
			v209 := v208
			v211 := v207
			v213 := v147
			v214 := v213
			v216 := v212
			v218 := v150
			v219 := v218
			v221 := v217
			v227 := v222
			v232 := v228
			var v234 uint64
			if v28 == 0x3 {
				v234 = 1
			}
			v235 := v234
			var v237 uint64
			if v235 != 0 {
				v237 = v236
			} else {
				v237 = v233
			}
			v241 := v238
			v246 := v242
			v251 := v247
			v254 := v252
			v257 := v255
			v260 := v258
			v263 := v261
			v266 := v264
			v269 := v267
			v272 := v270
			v275 := v273
			v278 := v276
			n0 := v28
			n1 := v36
			n2 := v43
			n3 := v50
			n4 := v53
			n5 := v55
			n6 := v57
			n7 := v59
			n8 := v61
			n9 := v63
			n10 := v65
			n11 := v67
			n12 := v69
			n13 := v71
			n14 := v73
			n15 := v75
			n16 := v77
			n17 := v79
			n18 := v81
			n19 := v126
			n20 := v182
			n21 := v184
			n22 := v187
			n23 := v189
			n24 := v192
			n25 := v194
			n26 := v198
			n27 := v200
			n28 := v204
			n29 := v206
			n30 := v209
			n31 := v211
			n32 := v214
			n33 := v216
			n34 := v219
			n35 := v221
			n36 := v227
			n37 := v232
			n38 := v237
			n39 := v241
			n40 := v246
			n41 := v251
			n42 := v254
			n43 := v257
			n44 := v260
			n45 := v263
			n46 := v266
			n47 := v269
			n48 := v272
			n49 := v275
			n50 := v278
			v0 = n0
			v17 = n1
			v5 = n2
			v11 = n3
			v51 = n4
			v52 = n5
			v54 = n6
			v56 = n7
			v58 = n8
			v60 = n9
			v62 = n10
			v64 = n11
			v66 = n12
			v68 = n13
			v70 = n14
			v72 = n15
			v74 = n16
			v76 = n17
			v78 = n18
			v80 = n19
			v127 = n20
			v128 = n21
			v172 = n22
			v185 = n23
			v174 = n24
			v190 = n25
			v195 = n26
			v196 = n27
			v130 = n28
			v201 = n29
			v147 = n30
			v207 = n31
			v150 = n32
			v212 = n33
			v129 = n34
			v217 = n35
			v222 = n36
			v228 = n37
			v233 = n38
			v238 = n39
			v242 = n40
			v247 = n41
			v252 = n42
			v255 = n43
			v258 = n44
			v261 = n45
			v264 = n46
			v267 = n47
			v270 = n48
			v273 = n49
			v276 = n50
		case 0x3:
			var v19 uint64
			if v17 != 0x0 {
				v19 = 1
			}
			var v21 uint64
			if v19 != 0 {
				v21 = 0x1
			} else {
				v21 = 0x4
			}
			v34 := (v17 - 0x1) & 0xffff
			var v39 uint64
			if v5 != 0x0 {
				v39 = 1
			}
			v41 := (v5 - 0x1) & 0x1f
			var v42 uint64
			if v39 != 0 {
				v42 = v41
			} else {
				v42 = v5
			}
			v183 := (v128 + v127) & 0xffffffff
			v188 := (v185 + v172) & 0xffffffff
			v193 := (v190 + v174) & 0xffffffff
			v199 := (v196 + v195) & 0xffffffff
			v205 := (v201 + v130) & 0xffffffff
			v210 := (v207 + v147) & 0xffffffff
			v215 := (v212 + v150) & 0xffffffff
			v220 := (v217 + v129) & 0xffffffff
			v240 := (v238 + 0x1) & 0xffffff
			v245 := (v242 + 0x1) & 0xffffff
			v262 := (v261 + 0x1) & 0xffffff
			v265 := (v264 + 0xf) & 0xffffff
			v268 := (v267 + v5) & 0xffffff
			v25 := v21
			v26 := v25
			v27 := v26
			v28 := v27
			v33 := v19
			var v35 uint64
			if v33 != 0 {
				v35 = v34
			} else {
				v35 = v17
			}
			v36 := v35
			v37 := v33
			var v43 uint64
			if v37 != 0 {
				v43 = 0xf
			} else {
				v43 = v42
			}
			v50 := v49
			v53 := v51
			v55 := v52
			v57 := v54
			v59 := v56
			v61 := v58
			v63 := v60
			v65 := v62
			v67 := v64
			v69 := v66
			v71 := v68
			v73 := v70
			v75 := v72
			v77 := v74
			v79 := v76
			v81 := v78
			v126 := v80
			v181 := v127
			v182 := v181
			v184 := v183
			v186 := v172
			v187 := v186
			v189 := v188
			v191 := v174
			v192 := v191
			v194 := v193
			v197 := v195
			v198 := v197
			v200 := v199
			v203 := v130
			v204 := v203
			v206 := v205
			v208 := v147
			v209 := v208
			v211 := v210
			v213 := v150
			v214 := v213
			v216 := v215
			v218 := v129
			v219 := v218
			v221 := v220
			var v223 uint64
			if v28 == 0x1 {
				v223 = 1
			}
			v227 := v222
			v232 := v228
			v237 := v233
			v239 := v223
			var v241 uint64
			if v239 != 0 {
				v241 = v240
			} else {
				v241 = v238
			}
			var v243 uint64
			if v28 == 0x4 {
				v243 = 1
			}
			v244 := v243
			var v246 uint64
			if v244 != 0 {
				v246 = v245
			} else {
				v246 = v242
			}
			v251 := v247
			v254 := v252
			v257 := v255
			v260 := v258
			var v263 uint64
			if v37 != 0 {
				v263 = v262
			} else {
				v263 = v261
			}
			var v266 uint64
			if v37 != 0 {
				v266 = v265
			} else {
				v266 = v264
			}
			var v269 uint64
			if v37 != 0 {
				v269 = v268
			} else {
				v269 = v267
			}
			v272 := v270
			v275 := v273
			v278 := v276
			n0 := v28
			n1 := v36
			n2 := v43
			n3 := v50
			n4 := v53
			n5 := v55
			n6 := v57
			n7 := v59
			n8 := v61
			n9 := v63
			n10 := v65
			n11 := v67
			n12 := v69
			n13 := v71
			n14 := v73
			n15 := v75
			n16 := v77
			n17 := v79
			n18 := v81
			n19 := v126
			n20 := v182
			n21 := v184
			n22 := v187
			n23 := v189
			n24 := v192
			n25 := v194
			n26 := v198
			n27 := v200
			n28 := v204
			n29 := v206
			n30 := v209
			n31 := v211
			n32 := v214
			n33 := v216
			n34 := v219
			n35 := v221
			n36 := v227
			n37 := v232
			n38 := v237
			n39 := v241
			n40 := v246
			n41 := v251
			n42 := v254
			n43 := v257
			n44 := v260
			n45 := v263
			n46 := v266
			n47 := v269
			n48 := v272
			n49 := v275
			n50 := v278
			v0 = n0
			v17 = n1
			v5 = n2
			v11 = n3
			v51 = n4
			v52 = n5
			v54 = n6
			v56 = n7
			v58 = n8
			v60 = n9
			v62 = n10
			v64 = n11
			v66 = n12
			v68 = n13
			v70 = n14
			v72 = n15
			v74 = n16
			v76 = n17
			v78 = n18
			v80 = n19
			v127 = n20
			v128 = n21
			v172 = n22
			v185 = n23
			v174 = n24
			v190 = n25
			v195 = n26
			v196 = n27
			v130 = n28
			v201 = n29
			v147 = n30
			v207 = n31
			v150 = n32
			v212 = n33
			v129 = n34
			v217 = n35
			v222 = n36
			v228 = n37
			v233 = n38
			v238 = n39
			v242 = n40
			v247 = n41
			v252 = n42
			v255 = n43
			v258 = n44
			v261 = n45
			v264 = n46
			v267 = n47
			v270 = n48
			v273 = n49
			v276 = n50
		case 0x4:
			var v39 uint64
			if v5 != 0x0 {
				v39 = 1
			}
			v41 := (v5 - 0x1) & 0x1f
			var v42 uint64
			if v39 != 0 {
				v42 = v41
			} else {
				v42 = v5
			}
			v250 := (v247 + 0x1) & 0xffffff
			v35 := v17
			v36 := v35
			v43 := v42
			v50 := v49
			v53 := v51
			v55 := v52
			v57 := v54
			v59 := v56
			v61 := v58
			v63 := v60
			v65 := v62
			v67 := v64
			v69 := v66
			v71 := v68
			v73 := v70
			v75 := v72
			v77 := v74
			v79 := v76
			v81 := v78
			v126 := v80
			v181 := v127
			v182 := v181
			v184 := v128
			v186 := v172
			v187 := v186
			v189 := v185
			v191 := v174
			v192 := v191
			v194 := v190
			v197 := v195
			v198 := v197
			v200 := v196
			v203 := v130
			v204 := v203
			v206 := v201
			v208 := v147
			v209 := v208
			v211 := v207
			v213 := v150
			v214 := v213
			v216 := v212
			v218 := v129
			v219 := v218
			v221 := v217
			v227 := v222
			v232 := v228
			v237 := v233
			v241 := v238
			v246 := v242
			v251 := v250
			v254 := v252
			v257 := v255
			v260 := v258
			v263 := v261
			v266 := v264
			v269 := v267
			v272 := v270
			v275 := v273
			v278 := v276
			if addr := uint64(0x0); addr < uint64(len(m2)) {
				m2[addr] = v128
			}
			if addr := uint64(0x1); addr < uint64(len(m2)) {
				m2[addr] = v185
			}
			if addr := uint64(0x2); addr < uint64(len(m2)) {
				m2[addr] = v190
			}
			if addr := uint64(0x3); addr < uint64(len(m2)) {
				m2[addr] = v196
			}
			if addr := uint64(0x4); addr < uint64(len(m2)) {
				m2[addr] = v201
			}
			if addr := uint64(0x5); addr < uint64(len(m2)) {
				m2[addr] = v207
			}
			if addr := uint64(0x6); addr < uint64(len(m2)) {
				m2[addr] = v212
			}
			if addr := uint64(0x7); addr < uint64(len(m2)) {
				m2[addr] = v217
			}
			n1 := v36
			n2 := v43
			n3 := v50
			n4 := v53
			n5 := v55
			n6 := v57
			n7 := v59
			n8 := v61
			n9 := v63
			n10 := v65
			n11 := v67
			n12 := v69
			n13 := v71
			n14 := v73
			n15 := v75
			n16 := v77
			n17 := v79
			n18 := v81
			n19 := v126
			n20 := v182
			n21 := v184
			n22 := v187
			n23 := v189
			n24 := v192
			n25 := v194
			n26 := v198
			n27 := v200
			n28 := v204
			n29 := v206
			n30 := v209
			n31 := v211
			n32 := v214
			n33 := v216
			n34 := v219
			n35 := v221
			n36 := v227
			n37 := v232
			n38 := v237
			n39 := v241
			n40 := v246
			n41 := v251
			n42 := v254
			n43 := v257
			n44 := v260
			n45 := v263
			n46 := v266
			n47 := v269
			n48 := v272
			n49 := v275
			n50 := v278
			v0 = 0x5
			v17 = n1
			v5 = n2
			v11 = n3
			v51 = n4
			v52 = n5
			v54 = n6
			v56 = n7
			v58 = n8
			v60 = n9
			v62 = n10
			v64 = n11
			v66 = n12
			v68 = n13
			v70 = n14
			v72 = n15
			v74 = n16
			v76 = n17
			v78 = n18
			v80 = n19
			v127 = n20
			v128 = n21
			v172 = n22
			v185 = n23
			v174 = n24
			v190 = n25
			v195 = n26
			v196 = n27
			v130 = n28
			v201 = n29
			v147 = n30
			v207 = n31
			v150 = n32
			v212 = n33
			v129 = n34
			v217 = n35
			v222 = n36
			v228 = n37
			v233 = n38
			v238 = n39
			v242 = n40
			v247 = n41
			v252 = n42
			v255 = n43
			v258 = n44
			v261 = n45
			v264 = n46
			v267 = n47
			v270 = n48
			v273 = n49
			v276 = n50
		case 0x5:
			break loop
		default:
			var v7 uint64
			if v5 == 0x0 {
				v7 = 1
			}
			var v13 uint64
			if v11 == 0x0 {
				v13 = 1
			}
			var v19 uint64
			if v17 != 0x0 {
				v19 = 1
			}
			var v21 uint64
			if v19 != 0 {
				v21 = 0x1
			} else {
				v21 = 0x4
			}
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0xffff
			}
			v32 := (v30 - 0x1) & 0xffff
			v34 := (v17 - 0x1) & 0xffff
			var v39 uint64
			if v5 != 0x0 {
				v39 = 1
			}
			v41 := (v5 - 0x1) & 0x1f
			var v42 uint64
			if v39 != 0 {
				v42 = v41
			} else {
				v42 = v5
			}
			v82 := (0x3f - v11) & 0x7f
			var v84 uint64
			if v82 < 0x10 {
				v84 = 1
			}
			v85 := (v32 - v17) & 0xffff
			v87 := (v85 << 4) & 0xffff
			v88 := v82
			v89 := (v87 + v88) & 0xffff
			v90 := (v89 + 0x1) & 0xffff
			v92 := v90 & 0x3ff
			var v93 uint64
			if addr := uint64(v92); addr < uint64(len(m0)) {
				v93 = m0[addr] & 0xffffffff
			}
			v95 := (v78 >> 17)
			v97 := (v78 << 15) & 0xffffffff
			v98 := (v95 | v97)
			v100 := (v78 >> 19)
			v102 := (v78 << 13) & 0xffffffff
			v103 := (v100 | v102)
			v104 := (v98 ^ v103)
			v106 := (v78 >> 10)
			v107 := (v104 ^ v106)
			v108 := (v107 + v68) & 0xffffffff
			v110 := (v52 >> 7)
			v112 := (v52 << 25) & 0xffffffff
			v113 := (v110 | v112)
			v115 := (v52 >> 18)
			v117 := (v52 << 14) & 0xffffffff
			v118 := (v115 | v117)
			v119 := (v113 ^ v118)
			v121 := (v52 >> 3)
			v122 := (v119 ^ v121)
			v123 := (v108 + v122) & 0xffffffff
			v124 := (v123 + v51) & 0xffffffff
			var v125 uint64
			if v84 != 0 {
				v125 = v93
			} else {
				v125 = v124
			}
			v132 := (v130 >> 6)
			v134 := (v130 << 26) & 0xffffffff
			v135 := (v132 | v134)
			v137 := (v130 >> 11)
			v139 := (v130 << 21) & 0xffffffff
			v140 := (v137 | v139)
			v141 := (v135 ^ v140)
			v142 := (v130 >> 25)
			v143 := (v130 << 7) & 0xffffffff
			v144 := (v142 | v143)
			v145 := (v141 ^ v144)
			v146 := (v129 + v145) & 0xffffffff
			v148 := v130 & v147
			v149 := ^v130 & 0xffffffff
			v151 := v149 & v150
			v152 := (v148 ^ v151)
			v153 := (v146 + v152) & 0xffffffff
			v154 := v82 & 0x3f
			var v155 uint64
			if addr := uint64(v154); addr < uint64(len(m1)) {
				v155 = m1[addr] & 0xffffffff
			}
			v156 := (v153 + v155) & 0xffffffff
			v157 := (v156 + v125) & 0xffffffff
			v159 := (v127 >> 2)
			v161 := (v127 << 30) & 0xffffffff
			v162 := (v159 | v161)
			v163 := (v127 >> 13)
			v164 := (v127 << 19) & 0xffffffff
			v165 := (v163 | v164)
			v166 := (v162 ^ v165)
			v168 := (v127 >> 22)
			v169 := (v127 << 10) & 0xffffffff
			v170 := (v168 | v169)
			v171 := (v166 ^ v170)
			v173 := v127 & v172
			v175 := v127 & v174
			v176 := (v173 ^ v175)
			v177 := v172 & v174
			v178 := (v176 ^ v177)
			v179 := (v171 + v178) & 0xffffffff
			v180 := (v157 + v179) & 0xffffffff
			v183 := (v128 + v127) & 0xffffffff
			v188 := (v185 + v172) & 0xffffffff
			v193 := (v190 + v174) & 0xffffffff
			v199 := (v196 + v195) & 0xffffffff
			v202 := (v195 + v157) & 0xffffffff
			v205 := (v201 + v130) & 0xffffffff
			v210 := (v207 + v147) & 0xffffffff
			v215 := (v212 + v150) & 0xffffffff
			v220 := (v217 + v129) & 0xffffffff
			v226 := (v222 + 0x1) & 0xffffff
			v231 := (v228 + 0x1) & 0xffffff
			v236 := (v233 + 0x1) & 0xffffff
			v240 := (v238 + 0x1) & 0xffffff
			v245 := (v242 + 0x1) & 0xffffff
			v250 := (v247 + 0x1) & 0xffffff
			v253 := (v252 + 0x1) & 0xffffff
			v256 := (v255 + v32) & 0xffffff
			v259 := (v258 + v17) & 0xffffff
			v262 := (v261 + 0x1) & 0xffffff
			v265 := (v264 + 0xf) & 0xffffff
			v268 := (v267 + v5) & 0xffffff
			v271 := (v270 + 0x1) & 0xffffff
			v274 := (v273 + 0x3f) & 0xffffff
			v277 := (v276 + v11) & 0xffffff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v9 uint64
			if v7 != 0 {
				v9 = 0x2
			} else {
				v9 = v0
			}
			var v10 uint64
			if v0 == 0x2 {
				v10 = 1
			}
			var v15 uint64
			if v13 != 0 {
				v15 = 0x3
			} else {
				v15 = v0
			}
			var v16 uint64
			if v0 == 0x3 {
				v16 = 1
			}
			var v22 uint64
			if v0 == 0x4 {
				v22 = 1
			}
			var v24 uint64
			if v22 != 0 {
				v24 = 0x5
			} else {
				v24 = v0
			}
			var v25 uint64
			if v16 != 0 {
				v25 = v21
			} else {
				v25 = v24
			}
			var v26 uint64
			if v10 != 0 {
				v26 = v15
			} else {
				v26 = v25
			}
			var v27 uint64
			if v4 != 0 {
				v27 = v9
			} else {
				v27 = v26
			}
			var v28 uint64
			if v2 != 0 {
				v28 = 0x1
			} else {
				v28 = v27
			}
			v33 := v16 & v19
			var v35 uint64
			if v33 != 0 {
				v35 = v34
			} else {
				v35 = v17
			}
			var v36 uint64
			if v2 != 0 {
				v36 = v32
			} else {
				v36 = v35
			}
			v37 := (v2 | v33)
			var v43 uint64
			if v37 != 0 {
				v43 = 0xf
			} else {
				v43 = v42
			}
			v44 := v4 & v7
			var v50 uint64
			if v44 != 0 {
				v50 = 0x3f
			} else {
				v50 = v49
			}
			var v53 uint64
			if v10 != 0 {
				v53 = v52
			} else {
				v53 = v51
			}
			var v55 uint64
			if v10 != 0 {
				v55 = v54
			} else {
				v55 = v52
			}
			var v57 uint64
			if v10 != 0 {
				v57 = v56
			} else {
				v57 = v54
			}
			var v59 uint64
			if v10 != 0 {
				v59 = v58
			} else {
				v59 = v56
			}
			var v61 uint64
			if v10 != 0 {
				v61 = v60
			} else {
				v61 = v58
			}
			var v63 uint64
			if v10 != 0 {
				v63 = v62
			} else {
				v63 = v60
			}
			var v65 uint64
			if v10 != 0 {
				v65 = v64
			} else {
				v65 = v62
			}
			var v67 uint64
			if v10 != 0 {
				v67 = v66
			} else {
				v67 = v64
			}
			var v69 uint64
			if v10 != 0 {
				v69 = v68
			} else {
				v69 = v66
			}
			var v71 uint64
			if v10 != 0 {
				v71 = v70
			} else {
				v71 = v68
			}
			var v73 uint64
			if v10 != 0 {
				v73 = v72
			} else {
				v73 = v70
			}
			var v75 uint64
			if v10 != 0 {
				v75 = v74
			} else {
				v75 = v72
			}
			var v77 uint64
			if v10 != 0 {
				v77 = v76
			} else {
				v77 = v74
			}
			var v79 uint64
			if v10 != 0 {
				v79 = v78
			} else {
				v79 = v76
			}
			var v81 uint64
			if v10 != 0 {
				v81 = v80
			} else {
				v81 = v78
			}
			var v126 uint64
			if v10 != 0 {
				v126 = v125
			} else {
				v126 = v80
			}
			var v181 uint64
			if v10 != 0 {
				v181 = v180
			} else {
				v181 = v127
			}
			var v182 uint64
			if v4 != 0 {
				v182 = v128
			} else {
				v182 = v181
			}
			var v184 uint64
			if v16 != 0 {
				v184 = v183
			} else {
				v184 = v128
			}
			var v186 uint64
			if v10 != 0 {
				v186 = v127
			} else {
				v186 = v172
			}
			var v187 uint64
			if v4 != 0 {
				v187 = v185
			} else {
				v187 = v186
			}
			var v189 uint64
			if v16 != 0 {
				v189 = v188
			} else {
				v189 = v185
			}
			var v191 uint64
			if v10 != 0 {
				v191 = v172
			} else {
				v191 = v174
			}
			var v192 uint64
			if v4 != 0 {
				v192 = v190
			} else {
				v192 = v191
			}
			var v194 uint64
			if v16 != 0 {
				v194 = v193
			} else {
				v194 = v190
			}
			var v197 uint64
			if v10 != 0 {
				v197 = v174
			} else {
				v197 = v195
			}
			var v198 uint64
			if v4 != 0 {
				v198 = v196
			} else {
				v198 = v197
			}
			var v200 uint64
			if v16 != 0 {
				v200 = v199
			} else {
				v200 = v196
			}
			var v203 uint64
			if v10 != 0 {
				v203 = v202
			} else {
				v203 = v130
			}
			var v204 uint64
			if v4 != 0 {
				v204 = v201
			} else {
				v204 = v203
			}
			var v206 uint64
			if v16 != 0 {
				v206 = v205
			} else {
				v206 = v201
			}
			var v208 uint64
			if v10 != 0 {
				v208 = v130
			} else {
				v208 = v147
			}
			var v209 uint64
			if v4 != 0 {
				v209 = v207
			} else {
				v209 = v208
			}
			var v211 uint64
			if v16 != 0 {
				v211 = v210
			} else {
				v211 = v207
			}
			var v213 uint64
			if v10 != 0 {
				v213 = v147
			} else {
				v213 = v150
			}
			var v214 uint64
			if v4 != 0 {
				v214 = v212
			} else {
				v214 = v213
			}
			var v216 uint64
			if v16 != 0 {
				v216 = v215
			} else {
				v216 = v212
			}
			var v218 uint64
			if v10 != 0 {
				v218 = v150
			} else {
				v218 = v129
			}
			var v219 uint64
			if v4 != 0 {
				v219 = v217
			} else {
				v219 = v218
			}
			var v221 uint64
			if v16 != 0 {
				v221 = v220
			} else {
				v221 = v217
			}
			var v223 uint64
			if v28 == 0x1 {
				v223 = 1
			}
			v224 := v2 & v223
			var v227 uint64
			if v224 != 0 {
				v227 = v226
			} else {
				v227 = v222
			}
			var v229 uint64
			if v28 == 0x2 {
				v229 = 1
			}
			v230 := v4 & v229
			var v232 uint64
			if v230 != 0 {
				v232 = v231
			} else {
				v232 = v228
			}
			var v234 uint64
			if v28 == 0x3 {
				v234 = 1
			}
			v235 := v10 & v234
			var v237 uint64
			if v235 != 0 {
				v237 = v236
			} else {
				v237 = v233
			}
			v239 := v16 & v223
			var v241 uint64
			if v239 != 0 {
				v241 = v240
			} else {
				v241 = v238
			}
			var v243 uint64
			if v28 == 0x4 {
				v243 = 1
			}
			v244 := v16 & v243
			var v246 uint64
			if v244 != 0 {
				v246 = v245
			} else {
				v246 = v242
			}
			var v248 uint64
			if v28 == 0x5 {
				v248 = 1
			}
			v249 := v22 & v248
			var v251 uint64
			if v249 != 0 {
				v251 = v250
			} else {
				v251 = v247
			}
			var v254 uint64
			if v2 != 0 {
				v254 = v253
			} else {
				v254 = v252
			}
			var v257 uint64
			if v2 != 0 {
				v257 = v256
			} else {
				v257 = v255
			}
			var v260 uint64
			if v2 != 0 {
				v260 = v259
			} else {
				v260 = v258
			}
			var v263 uint64
			if v37 != 0 {
				v263 = v262
			} else {
				v263 = v261
			}
			var v266 uint64
			if v37 != 0 {
				v266 = v265
			} else {
				v266 = v264
			}
			var v269 uint64
			if v37 != 0 {
				v269 = v268
			} else {
				v269 = v267
			}
			var v272 uint64
			if v44 != 0 {
				v272 = v271
			} else {
				v272 = v270
			}
			var v275 uint64
			if v44 != 0 {
				v275 = v274
			} else {
				v275 = v273
			}
			var v278 uint64
			if v44 != 0 {
				v278 = v277
			} else {
				v278 = v276
			}
			var v287 uint64
			if v0 == 0x5 {
				v287 = 1
			}
			if v287 != 0 {
				break loop
			}
			if v22 != 0 {
				if addr := uint64(0x0); addr < uint64(len(m2)) {
					m2[addr] = v128
				}
			}
			if v22 != 0 {
				if addr := uint64(0x1); addr < uint64(len(m2)) {
					m2[addr] = v185
				}
			}
			if v22 != 0 {
				if addr := uint64(0x2); addr < uint64(len(m2)) {
					m2[addr] = v190
				}
			}
			if v22 != 0 {
				if addr := uint64(0x3); addr < uint64(len(m2)) {
					m2[addr] = v196
				}
			}
			if v22 != 0 {
				if addr := uint64(0x4); addr < uint64(len(m2)) {
					m2[addr] = v201
				}
			}
			if v22 != 0 {
				if addr := uint64(0x5); addr < uint64(len(m2)) {
					m2[addr] = v207
				}
			}
			if v22 != 0 {
				if addr := uint64(0x6); addr < uint64(len(m2)) {
					m2[addr] = v212
				}
			}
			if v22 != 0 {
				if addr := uint64(0x7); addr < uint64(len(m2)) {
					m2[addr] = v217
				}
			}
			n0 := v28
			n1 := v36
			n2 := v43
			n3 := v50
			n4 := v53
			n5 := v55
			n6 := v57
			n7 := v59
			n8 := v61
			n9 := v63
			n10 := v65
			n11 := v67
			n12 := v69
			n13 := v71
			n14 := v73
			n15 := v75
			n16 := v77
			n17 := v79
			n18 := v81
			n19 := v126
			n20 := v182
			n21 := v184
			n22 := v187
			n23 := v189
			n24 := v192
			n25 := v194
			n26 := v198
			n27 := v200
			n28 := v204
			n29 := v206
			n30 := v209
			n31 := v211
			n32 := v214
			n33 := v216
			n34 := v219
			n35 := v221
			n36 := v227
			n37 := v232
			n38 := v237
			n39 := v241
			n40 := v246
			n41 := v251
			n42 := v254
			n43 := v257
			n44 := v260
			n45 := v263
			n46 := v266
			n47 := v269
			n48 := v272
			n49 := v275
			n50 := v278
			v0 = n0
			v17 = n1
			v5 = n2
			v11 = n3
			v51 = n4
			v52 = n5
			v54 = n6
			v56 = n7
			v58 = n8
			v60 = n9
			v62 = n10
			v64 = n11
			v66 = n12
			v68 = n13
			v70 = n14
			v72 = n15
			v74 = n16
			v76 = n17
			v78 = n18
			v80 = n19
			v127 = n20
			v128 = n21
			v172 = n22
			v185 = n23
			v174 = n24
			v190 = n25
			v195 = n26
			v196 = n27
			v130 = n28
			v201 = n29
			v147 = n30
			v207 = n31
			v150 = n32
			v212 = n33
			v129 = n34
			v217 = n35
			v222 = n36
			v228 = n37
			v233 = n38
			v238 = n39
			v242 = n40
			v247 = n41
			v252 = n42
			v255 = n43
			v258 = n44
			v261 = n45
			v264 = n46
			v267 = n47
			v270 = n48
			v273 = n49
			v276 = n50
		}
	}
	vals[0] = v0
	vals[17] = v17
	vals[5] = v5
	vals[11] = v11
	vals[51] = v51
	vals[52] = v52
	vals[54] = v54
	vals[56] = v56
	vals[58] = v58
	vals[60] = v60
	vals[62] = v62
	vals[64] = v64
	vals[66] = v66
	vals[68] = v68
	vals[70] = v70
	vals[72] = v72
	vals[74] = v74
	vals[76] = v76
	vals[78] = v78
	vals[80] = v80
	vals[127] = v127
	vals[128] = v128
	vals[172] = v172
	vals[185] = v185
	vals[174] = v174
	vals[190] = v190
	vals[195] = v195
	vals[196] = v196
	vals[130] = v130
	vals[201] = v201
	vals[147] = v147
	vals[207] = v207
	vals[150] = v150
	vals[212] = v212
	vals[129] = v129
	vals[217] = v217
	vals[222] = v222
	vals[228] = v228
	vals[233] = v233
	vals[238] = v238
	vals[242] = v242
	vals[247] = v247
	vals[252] = v252
	vals[255] = v255
	vals[258] = v258
	vals[261] = v261
	vals[264] = v264
	vals[267] = v267
	vals[270] = v270
	vals[273] = v273
	vals[276] = v276
	var v7 uint64
	if v5 == 0x0 {
		v7 = 1
	}
	vals[7] = v7
	var v13 uint64
	if v11 == 0x0 {
		v13 = 1
	}
	vals[13] = v13
	var v19 uint64
	if v17 != 0x0 {
		v19 = 1
	}
	vals[19] = v19
	var v21 uint64
	if v19 != 0 {
		v21 = 0x1
	} else {
		v21 = 0x4
	}
	vals[21] = v21
	var v30 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v30 = m0[addr] & 0xffff
	}
	vals[30] = v30
	v32 := (v30 - 0x1) & 0xffff
	vals[32] = v32
	v34 := (v17 - 0x1) & 0xffff
	vals[34] = v34
	var v39 uint64
	if v5 != 0x0 {
		v39 = 1
	}
	vals[39] = v39
	v41 := (v5 - 0x1) & 0x1f
	vals[41] = v41
	var v42 uint64
	if v39 != 0 {
		v42 = v41
	} else {
		v42 = v5
	}
	vals[42] = v42
	var v46 uint64
	if v11 != 0x0 {
		v46 = 1
	}
	vals[46] = v46
	v48 := (v11 - 0x1) & 0x7f
	vals[48] = v48
	var v49 uint64
	if v46 != 0 {
		v49 = v48
	} else {
		v49 = v11
	}
	vals[49] = v49
	v82 := (0x3f - v11) & 0x7f
	vals[82] = v82
	var v84 uint64
	if v82 < 0x10 {
		v84 = 1
	}
	vals[84] = v84
	v85 := (v32 - v17) & 0xffff
	vals[85] = v85
	v87 := (v85 << 4) & 0xffff
	vals[87] = v87
	v88 := v82
	vals[88] = v88
	v89 := (v87 + v88) & 0xffff
	vals[89] = v89
	v90 := (v89 + 0x1) & 0xffff
	vals[90] = v90
	v92 := v90 & 0x3ff
	vals[92] = v92
	var v93 uint64
	if addr := uint64(v92); addr < uint64(len(m0)) {
		v93 = m0[addr] & 0xffffffff
	}
	vals[93] = v93
	v95 := (v78 >> 17)
	vals[95] = v95
	v97 := (v78 << 15) & 0xffffffff
	vals[97] = v97
	v98 := (v95 | v97)
	vals[98] = v98
	v100 := (v78 >> 19)
	vals[100] = v100
	v102 := (v78 << 13) & 0xffffffff
	vals[102] = v102
	v103 := (v100 | v102)
	vals[103] = v103
	v104 := (v98 ^ v103)
	vals[104] = v104
	v106 := (v78 >> 10)
	vals[106] = v106
	v107 := (v104 ^ v106)
	vals[107] = v107
	v108 := (v107 + v68) & 0xffffffff
	vals[108] = v108
	v110 := (v52 >> 7)
	vals[110] = v110
	v112 := (v52 << 25) & 0xffffffff
	vals[112] = v112
	v113 := (v110 | v112)
	vals[113] = v113
	v115 := (v52 >> 18)
	vals[115] = v115
	v117 := (v52 << 14) & 0xffffffff
	vals[117] = v117
	v118 := (v115 | v117)
	vals[118] = v118
	v119 := (v113 ^ v118)
	vals[119] = v119
	v121 := (v52 >> 3)
	vals[121] = v121
	v122 := (v119 ^ v121)
	vals[122] = v122
	v123 := (v108 + v122) & 0xffffffff
	vals[123] = v123
	v124 := (v123 + v51) & 0xffffffff
	vals[124] = v124
	var v125 uint64
	if v84 != 0 {
		v125 = v93
	} else {
		v125 = v124
	}
	vals[125] = v125
	v132 := (v130 >> 6)
	vals[132] = v132
	v134 := (v130 << 26) & 0xffffffff
	vals[134] = v134
	v135 := (v132 | v134)
	vals[135] = v135
	v137 := (v130 >> 11)
	vals[137] = v137
	v139 := (v130 << 21) & 0xffffffff
	vals[139] = v139
	v140 := (v137 | v139)
	vals[140] = v140
	v141 := (v135 ^ v140)
	vals[141] = v141
	v142 := (v130 >> 25)
	vals[142] = v142
	v143 := (v130 << 7) & 0xffffffff
	vals[143] = v143
	v144 := (v142 | v143)
	vals[144] = v144
	v145 := (v141 ^ v144)
	vals[145] = v145
	v146 := (v129 + v145) & 0xffffffff
	vals[146] = v146
	v148 := v130 & v147
	vals[148] = v148
	v149 := ^v130 & 0xffffffff
	vals[149] = v149
	v151 := v149 & v150
	vals[151] = v151
	v152 := (v148 ^ v151)
	vals[152] = v152
	v153 := (v146 + v152) & 0xffffffff
	vals[153] = v153
	v154 := v82 & 0x3f
	vals[154] = v154
	var v155 uint64
	if addr := uint64(v154); addr < uint64(len(m1)) {
		v155 = m1[addr] & 0xffffffff
	}
	vals[155] = v155
	v156 := (v153 + v155) & 0xffffffff
	vals[156] = v156
	v157 := (v156 + v125) & 0xffffffff
	vals[157] = v157
	v159 := (v127 >> 2)
	vals[159] = v159
	v161 := (v127 << 30) & 0xffffffff
	vals[161] = v161
	v162 := (v159 | v161)
	vals[162] = v162
	v163 := (v127 >> 13)
	vals[163] = v163
	v164 := (v127 << 19) & 0xffffffff
	vals[164] = v164
	v165 := (v163 | v164)
	vals[165] = v165
	v166 := (v162 ^ v165)
	vals[166] = v166
	v168 := (v127 >> 22)
	vals[168] = v168
	v169 := (v127 << 10) & 0xffffffff
	vals[169] = v169
	v170 := (v168 | v169)
	vals[170] = v170
	v171 := (v166 ^ v170)
	vals[171] = v171
	v173 := v127 & v172
	vals[173] = v173
	v175 := v127 & v174
	vals[175] = v175
	v176 := (v173 ^ v175)
	vals[176] = v176
	v177 := v172 & v174
	vals[177] = v177
	v178 := (v176 ^ v177)
	vals[178] = v178
	v179 := (v171 + v178) & 0xffffffff
	vals[179] = v179
	v180 := (v157 + v179) & 0xffffffff
	vals[180] = v180
	v183 := (v128 + v127) & 0xffffffff
	vals[183] = v183
	v188 := (v185 + v172) & 0xffffffff
	vals[188] = v188
	v193 := (v190 + v174) & 0xffffffff
	vals[193] = v193
	v199 := (v196 + v195) & 0xffffffff
	vals[199] = v199
	v202 := (v195 + v157) & 0xffffffff
	vals[202] = v202
	v205 := (v201 + v130) & 0xffffffff
	vals[205] = v205
	v210 := (v207 + v147) & 0xffffffff
	vals[210] = v210
	v215 := (v212 + v150) & 0xffffffff
	vals[215] = v215
	v220 := (v217 + v129) & 0xffffffff
	vals[220] = v220
	v226 := (v222 + 0x1) & 0xffffff
	vals[226] = v226
	v231 := (v228 + 0x1) & 0xffffff
	vals[231] = v231
	v236 := (v233 + 0x1) & 0xffffff
	vals[236] = v236
	v240 := (v238 + 0x1) & 0xffffff
	vals[240] = v240
	v245 := (v242 + 0x1) & 0xffffff
	vals[245] = v245
	v250 := (v247 + 0x1) & 0xffffff
	vals[250] = v250
	v253 := (v252 + 0x1) & 0xffffff
	vals[253] = v253
	v256 := (v255 + v32) & 0xffffff
	vals[256] = v256
	v259 := (v258 + v17) & 0xffffff
	vals[259] = v259
	v262 := (v261 + 0x1) & 0xffffff
	vals[262] = v262
	v265 := (v264 + 0xf) & 0xffffff
	vals[265] = v265
	v268 := (v267 + v5) & 0xffffff
	vals[268] = v268
	v271 := (v270 + 0x1) & 0xffffff
	vals[271] = v271
	v274 := (v273 + 0x3f) & 0xffffff
	vals[274] = v274
	v277 := (v276 + v11) & 0xffffff
	vals[277] = v277
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		var v9 uint64
		if v7 != 0 {
			v9 = 0x2
		} else {
			v9 = 0x0
		}
		vals[9] = v9
		vals[10] = 0x0
		var v15 uint64
		if v13 != 0 {
			v15 = 0x3
		} else {
			v15 = 0x0
		}
		vals[15] = v15
		vals[16] = 0x0
		vals[22] = 0x0
		vals[24] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[27] = 0x0
		vals[28] = 0x1
		vals[33] = 0x0
		v35 := v17
		vals[35] = v35
		v36 := v32
		vals[36] = v36
		vals[37] = 0x1
		vals[43] = 0xf
		vals[44] = 0x0
		v50 := v49
		vals[50] = v50
		v53 := v51
		vals[53] = v53
		v55 := v52
		vals[55] = v55
		v57 := v54
		vals[57] = v57
		v59 := v56
		vals[59] = v59
		v61 := v58
		vals[61] = v61
		v63 := v60
		vals[63] = v63
		v65 := v62
		vals[65] = v65
		v67 := v64
		vals[67] = v67
		v69 := v66
		vals[69] = v69
		v71 := v68
		vals[71] = v71
		v73 := v70
		vals[73] = v73
		v75 := v72
		vals[75] = v75
		v77 := v74
		vals[77] = v77
		v79 := v76
		vals[79] = v79
		v81 := v78
		vals[81] = v81
		v126 := v80
		vals[126] = v126
		v181 := v127
		vals[181] = v181
		v182 := v181
		vals[182] = v182
		v184 := v128
		vals[184] = v184
		v186 := v172
		vals[186] = v186
		v187 := v186
		vals[187] = v187
		v189 := v185
		vals[189] = v189
		v191 := v174
		vals[191] = v191
		v192 := v191
		vals[192] = v192
		v194 := v190
		vals[194] = v194
		v197 := v195
		vals[197] = v197
		v198 := v197
		vals[198] = v198
		v200 := v196
		vals[200] = v200
		v203 := v130
		vals[203] = v203
		v204 := v203
		vals[204] = v204
		v206 := v201
		vals[206] = v206
		v208 := v147
		vals[208] = v208
		v209 := v208
		vals[209] = v209
		v211 := v207
		vals[211] = v211
		v213 := v150
		vals[213] = v213
		v214 := v213
		vals[214] = v214
		v216 := v212
		vals[216] = v216
		v218 := v129
		vals[218] = v218
		v219 := v218
		vals[219] = v219
		v221 := v217
		vals[221] = v221
		vals[223] = 0x1
		vals[224] = 0x1
		v227 := v226
		vals[227] = v227
		vals[229] = 0x0
		vals[230] = 0x0
		v232 := v228
		vals[232] = v232
		vals[234] = 0x0
		vals[235] = 0x0
		v237 := v233
		vals[237] = v237
		vals[239] = 0x0
		v241 := v238
		vals[241] = v241
		vals[243] = 0x0
		vals[244] = 0x0
		v246 := v242
		vals[246] = v246
		vals[248] = 0x0
		vals[249] = 0x0
		v251 := v247
		vals[251] = v251
		v254 := v253
		vals[254] = v254
		v257 := v256
		vals[257] = v257
		v260 := v259
		vals[260] = v260
		v263 := v262
		vals[263] = v263
		v266 := v265
		vals[266] = v266
		v269 := v268
		vals[269] = v269
		v272 := v270
		vals[272] = v272
		v275 := v273
		vals[275] = v275
		v278 := v276
		vals[278] = v278
		vals[287] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		var v9 uint64
		if v7 != 0 {
			v9 = 0x2
		} else {
			v9 = 0x1
		}
		vals[9] = v9
		vals[10] = 0x0
		var v15 uint64
		if v13 != 0 {
			v15 = 0x3
		} else {
			v15 = 0x1
		}
		vals[15] = v15
		vals[16] = 0x0
		vals[22] = 0x0
		vals[24] = 0x1
		vals[25] = 0x1
		vals[26] = 0x1
		v27 := v9
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		vals[33] = 0x0
		v35 := v17
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		vals[37] = 0x0
		v43 := v42
		vals[43] = v43
		v44 := v7
		vals[44] = v44
		var v50 uint64
		if v44 != 0 {
			v50 = 0x3f
		} else {
			v50 = v49
		}
		vals[50] = v50
		v53 := v51
		vals[53] = v53
		v55 := v52
		vals[55] = v55
		v57 := v54
		vals[57] = v57
		v59 := v56
		vals[59] = v59
		v61 := v58
		vals[61] = v61
		v63 := v60
		vals[63] = v63
		v65 := v62
		vals[65] = v65
		v67 := v64
		vals[67] = v67
		v69 := v66
		vals[69] = v69
		v71 := v68
		vals[71] = v71
		v73 := v70
		vals[73] = v73
		v75 := v72
		vals[75] = v75
		v77 := v74
		vals[77] = v77
		v79 := v76
		vals[79] = v79
		v81 := v78
		vals[81] = v81
		v126 := v80
		vals[126] = v126
		v181 := v127
		vals[181] = v181
		v182 := v128
		vals[182] = v182
		v184 := v128
		vals[184] = v184
		v186 := v172
		vals[186] = v186
		v187 := v185
		vals[187] = v187
		v189 := v185
		vals[189] = v189
		v191 := v174
		vals[191] = v191
		v192 := v190
		vals[192] = v192
		v194 := v190
		vals[194] = v194
		v197 := v195
		vals[197] = v197
		v198 := v196
		vals[198] = v198
		v200 := v196
		vals[200] = v200
		v203 := v130
		vals[203] = v203
		v204 := v201
		vals[204] = v204
		v206 := v201
		vals[206] = v206
		v208 := v147
		vals[208] = v208
		v209 := v207
		vals[209] = v209
		v211 := v207
		vals[211] = v211
		v213 := v150
		vals[213] = v213
		v214 := v212
		vals[214] = v214
		v216 := v212
		vals[216] = v216
		v218 := v129
		vals[218] = v218
		v219 := v217
		vals[219] = v219
		v221 := v217
		vals[221] = v221
		var v223 uint64
		if v28 == 0x1 {
			v223 = 1
		}
		vals[223] = v223
		vals[224] = 0x0
		v227 := v222
		vals[227] = v227
		var v229 uint64
		if v28 == 0x2 {
			v229 = 1
		}
		vals[229] = v229
		v230 := v229
		vals[230] = v230
		var v232 uint64
		if v230 != 0 {
			v232 = v231
		} else {
			v232 = v228
		}
		vals[232] = v232
		var v234 uint64
		if v28 == 0x3 {
			v234 = 1
		}
		vals[234] = v234
		vals[235] = 0x0
		v237 := v233
		vals[237] = v237
		vals[239] = 0x0
		v241 := v238
		vals[241] = v241
		var v243 uint64
		if v28 == 0x4 {
			v243 = 1
		}
		vals[243] = v243
		vals[244] = 0x0
		v246 := v242
		vals[246] = v246
		var v248 uint64
		if v28 == 0x5 {
			v248 = 1
		}
		vals[248] = v248
		vals[249] = 0x0
		v251 := v247
		vals[251] = v251
		v254 := v252
		vals[254] = v254
		v257 := v255
		vals[257] = v257
		v260 := v258
		vals[260] = v260
		v263 := v261
		vals[263] = v263
		v266 := v264
		vals[266] = v266
		v269 := v267
		vals[269] = v269
		var v272 uint64
		if v44 != 0 {
			v272 = v271
		} else {
			v272 = v270
		}
		vals[272] = v272
		var v275 uint64
		if v44 != 0 {
			v275 = v274
		} else {
			v275 = v273
		}
		vals[275] = v275
		var v278 uint64
		if v44 != 0 {
			v278 = v277
		} else {
			v278 = v276
		}
		vals[278] = v278
		vals[287] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		var v9 uint64
		if v7 != 0 {
			v9 = 0x2
		} else {
			v9 = 0x2
		}
		vals[9] = v9
		vals[10] = 0x1
		var v15 uint64
		if v13 != 0 {
			v15 = 0x3
		} else {
			v15 = 0x2
		}
		vals[15] = v15
		vals[16] = 0x0
		vals[22] = 0x0
		vals[24] = 0x2
		vals[25] = 0x2
		v26 := v15
		vals[26] = v26
		v27 := v26
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		vals[33] = 0x0
		v35 := v17
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		vals[37] = 0x0
		v43 := v42
		vals[43] = v43
		vals[44] = 0x0
		v50 := v49
		vals[50] = v50
		v53 := v52
		vals[53] = v53
		v55 := v54
		vals[55] = v55
		v57 := v56
		vals[57] = v57
		v59 := v58
		vals[59] = v59
		v61 := v60
		vals[61] = v61
		v63 := v62
		vals[63] = v63
		v65 := v64
		vals[65] = v65
		v67 := v66
		vals[67] = v67
		v69 := v68
		vals[69] = v69
		v71 := v70
		vals[71] = v71
		v73 := v72
		vals[73] = v73
		v75 := v74
		vals[75] = v75
		v77 := v76
		vals[77] = v77
		v79 := v78
		vals[79] = v79
		v81 := v80
		vals[81] = v81
		v126 := v125
		vals[126] = v126
		v181 := v180
		vals[181] = v181
		v182 := v181
		vals[182] = v182
		v184 := v128
		vals[184] = v184
		v186 := v127
		vals[186] = v186
		v187 := v186
		vals[187] = v187
		v189 := v185
		vals[189] = v189
		v191 := v172
		vals[191] = v191
		v192 := v191
		vals[192] = v192
		v194 := v190
		vals[194] = v194
		v197 := v174
		vals[197] = v197
		v198 := v197
		vals[198] = v198
		v200 := v196
		vals[200] = v200
		v203 := v202
		vals[203] = v203
		v204 := v203
		vals[204] = v204
		v206 := v201
		vals[206] = v206
		v208 := v130
		vals[208] = v208
		v209 := v208
		vals[209] = v209
		v211 := v207
		vals[211] = v211
		v213 := v147
		vals[213] = v213
		v214 := v213
		vals[214] = v214
		v216 := v212
		vals[216] = v216
		v218 := v150
		vals[218] = v218
		v219 := v218
		vals[219] = v219
		v221 := v217
		vals[221] = v221
		var v223 uint64
		if v28 == 0x1 {
			v223 = 1
		}
		vals[223] = v223
		vals[224] = 0x0
		v227 := v222
		vals[227] = v227
		var v229 uint64
		if v28 == 0x2 {
			v229 = 1
		}
		vals[229] = v229
		vals[230] = 0x0
		v232 := v228
		vals[232] = v232
		var v234 uint64
		if v28 == 0x3 {
			v234 = 1
		}
		vals[234] = v234
		v235 := v234
		vals[235] = v235
		var v237 uint64
		if v235 != 0 {
			v237 = v236
		} else {
			v237 = v233
		}
		vals[237] = v237
		vals[239] = 0x0
		v241 := v238
		vals[241] = v241
		var v243 uint64
		if v28 == 0x4 {
			v243 = 1
		}
		vals[243] = v243
		vals[244] = 0x0
		v246 := v242
		vals[246] = v246
		var v248 uint64
		if v28 == 0x5 {
			v248 = 1
		}
		vals[248] = v248
		vals[249] = 0x0
		v251 := v247
		vals[251] = v251
		v254 := v252
		vals[254] = v254
		v257 := v255
		vals[257] = v257
		v260 := v258
		vals[260] = v260
		v263 := v261
		vals[263] = v263
		v266 := v264
		vals[266] = v266
		v269 := v267
		vals[269] = v269
		v272 := v270
		vals[272] = v272
		v275 := v273
		vals[275] = v275
		v278 := v276
		vals[278] = v278
		vals[287] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		var v9 uint64
		if v7 != 0 {
			v9 = 0x2
		} else {
			v9 = 0x3
		}
		vals[9] = v9
		vals[10] = 0x0
		var v15 uint64
		if v13 != 0 {
			v15 = 0x3
		} else {
			v15 = 0x3
		}
		vals[15] = v15
		vals[16] = 0x1
		vals[22] = 0x0
		vals[24] = 0x3
		v25 := v21
		vals[25] = v25
		v26 := v25
		vals[26] = v26
		v27 := v26
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v33 := v19
		vals[33] = v33
		var v35 uint64
		if v33 != 0 {
			v35 = v34
		} else {
			v35 = v17
		}
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v37 := v33
		vals[37] = v37
		var v43 uint64
		if v37 != 0 {
			v43 = 0xf
		} else {
			v43 = v42
		}
		vals[43] = v43
		vals[44] = 0x0
		v50 := v49
		vals[50] = v50
		v53 := v51
		vals[53] = v53
		v55 := v52
		vals[55] = v55
		v57 := v54
		vals[57] = v57
		v59 := v56
		vals[59] = v59
		v61 := v58
		vals[61] = v61
		v63 := v60
		vals[63] = v63
		v65 := v62
		vals[65] = v65
		v67 := v64
		vals[67] = v67
		v69 := v66
		vals[69] = v69
		v71 := v68
		vals[71] = v71
		v73 := v70
		vals[73] = v73
		v75 := v72
		vals[75] = v75
		v77 := v74
		vals[77] = v77
		v79 := v76
		vals[79] = v79
		v81 := v78
		vals[81] = v81
		v126 := v80
		vals[126] = v126
		v181 := v127
		vals[181] = v181
		v182 := v181
		vals[182] = v182
		v184 := v183
		vals[184] = v184
		v186 := v172
		vals[186] = v186
		v187 := v186
		vals[187] = v187
		v189 := v188
		vals[189] = v189
		v191 := v174
		vals[191] = v191
		v192 := v191
		vals[192] = v192
		v194 := v193
		vals[194] = v194
		v197 := v195
		vals[197] = v197
		v198 := v197
		vals[198] = v198
		v200 := v199
		vals[200] = v200
		v203 := v130
		vals[203] = v203
		v204 := v203
		vals[204] = v204
		v206 := v205
		vals[206] = v206
		v208 := v147
		vals[208] = v208
		v209 := v208
		vals[209] = v209
		v211 := v210
		vals[211] = v211
		v213 := v150
		vals[213] = v213
		v214 := v213
		vals[214] = v214
		v216 := v215
		vals[216] = v216
		v218 := v129
		vals[218] = v218
		v219 := v218
		vals[219] = v219
		v221 := v220
		vals[221] = v221
		var v223 uint64
		if v28 == 0x1 {
			v223 = 1
		}
		vals[223] = v223
		vals[224] = 0x0
		v227 := v222
		vals[227] = v227
		var v229 uint64
		if v28 == 0x2 {
			v229 = 1
		}
		vals[229] = v229
		vals[230] = 0x0
		v232 := v228
		vals[232] = v232
		var v234 uint64
		if v28 == 0x3 {
			v234 = 1
		}
		vals[234] = v234
		vals[235] = 0x0
		v237 := v233
		vals[237] = v237
		v239 := v223
		vals[239] = v239
		var v241 uint64
		if v239 != 0 {
			v241 = v240
		} else {
			v241 = v238
		}
		vals[241] = v241
		var v243 uint64
		if v28 == 0x4 {
			v243 = 1
		}
		vals[243] = v243
		v244 := v243
		vals[244] = v244
		var v246 uint64
		if v244 != 0 {
			v246 = v245
		} else {
			v246 = v242
		}
		vals[246] = v246
		var v248 uint64
		if v28 == 0x5 {
			v248 = 1
		}
		vals[248] = v248
		vals[249] = 0x0
		v251 := v247
		vals[251] = v251
		v254 := v252
		vals[254] = v254
		v257 := v255
		vals[257] = v257
		v260 := v258
		vals[260] = v260
		var v263 uint64
		if v37 != 0 {
			v263 = v262
		} else {
			v263 = v261
		}
		vals[263] = v263
		var v266 uint64
		if v37 != 0 {
			v266 = v265
		} else {
			v266 = v264
		}
		vals[266] = v266
		var v269 uint64
		if v37 != 0 {
			v269 = v268
		} else {
			v269 = v267
		}
		vals[269] = v269
		v272 := v270
		vals[272] = v272
		v275 := v273
		vals[275] = v275
		v278 := v276
		vals[278] = v278
		vals[287] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		var v9 uint64
		if v7 != 0 {
			v9 = 0x2
		} else {
			v9 = 0x4
		}
		vals[9] = v9
		vals[10] = 0x0
		var v15 uint64
		if v13 != 0 {
			v15 = 0x3
		} else {
			v15 = 0x4
		}
		vals[15] = v15
		vals[16] = 0x0
		vals[22] = 0x1
		vals[24] = 0x5
		vals[25] = 0x5
		vals[26] = 0x5
		vals[27] = 0x5
		vals[28] = 0x5
		vals[33] = 0x0
		v35 := v17
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		vals[37] = 0x0
		v43 := v42
		vals[43] = v43
		vals[44] = 0x0
		v50 := v49
		vals[50] = v50
		v53 := v51
		vals[53] = v53
		v55 := v52
		vals[55] = v55
		v57 := v54
		vals[57] = v57
		v59 := v56
		vals[59] = v59
		v61 := v58
		vals[61] = v61
		v63 := v60
		vals[63] = v63
		v65 := v62
		vals[65] = v65
		v67 := v64
		vals[67] = v67
		v69 := v66
		vals[69] = v69
		v71 := v68
		vals[71] = v71
		v73 := v70
		vals[73] = v73
		v75 := v72
		vals[75] = v75
		v77 := v74
		vals[77] = v77
		v79 := v76
		vals[79] = v79
		v81 := v78
		vals[81] = v81
		v126 := v80
		vals[126] = v126
		v181 := v127
		vals[181] = v181
		v182 := v181
		vals[182] = v182
		v184 := v128
		vals[184] = v184
		v186 := v172
		vals[186] = v186
		v187 := v186
		vals[187] = v187
		v189 := v185
		vals[189] = v189
		v191 := v174
		vals[191] = v191
		v192 := v191
		vals[192] = v192
		v194 := v190
		vals[194] = v194
		v197 := v195
		vals[197] = v197
		v198 := v197
		vals[198] = v198
		v200 := v196
		vals[200] = v200
		v203 := v130
		vals[203] = v203
		v204 := v203
		vals[204] = v204
		v206 := v201
		vals[206] = v206
		v208 := v147
		vals[208] = v208
		v209 := v208
		vals[209] = v209
		v211 := v207
		vals[211] = v211
		v213 := v150
		vals[213] = v213
		v214 := v213
		vals[214] = v214
		v216 := v212
		vals[216] = v216
		v218 := v129
		vals[218] = v218
		v219 := v218
		vals[219] = v219
		v221 := v217
		vals[221] = v221
		vals[223] = 0x0
		vals[224] = 0x0
		v227 := v222
		vals[227] = v227
		vals[229] = 0x0
		vals[230] = 0x0
		v232 := v228
		vals[232] = v232
		vals[234] = 0x0
		vals[235] = 0x0
		v237 := v233
		vals[237] = v237
		vals[239] = 0x0
		v241 := v238
		vals[241] = v241
		vals[243] = 0x0
		vals[244] = 0x0
		v246 := v242
		vals[246] = v246
		vals[248] = 0x1
		vals[249] = 0x1
		v251 := v250
		vals[251] = v251
		v254 := v252
		vals[254] = v254
		v257 := v255
		vals[257] = v257
		v260 := v258
		vals[260] = v260
		v263 := v261
		vals[263] = v263
		v266 := v264
		vals[266] = v266
		v269 := v267
		vals[269] = v269
		v272 := v270
		vals[272] = v272
		v275 := v273
		vals[275] = v275
		v278 := v276
		vals[278] = v278
		vals[287] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		var v9 uint64
		if v7 != 0 {
			v9 = 0x2
		} else {
			v9 = 0x5
		}
		vals[9] = v9
		vals[10] = 0x0
		var v15 uint64
		if v13 != 0 {
			v15 = 0x3
		} else {
			v15 = 0x5
		}
		vals[15] = v15
		vals[16] = 0x0
		vals[22] = 0x0
		vals[24] = 0x5
		vals[25] = 0x5
		vals[26] = 0x5
		vals[27] = 0x5
		vals[28] = 0x5
		vals[33] = 0x0
		v35 := v17
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		vals[37] = 0x0
		v43 := v42
		vals[43] = v43
		vals[44] = 0x0
		v50 := v49
		vals[50] = v50
		v53 := v51
		vals[53] = v53
		v55 := v52
		vals[55] = v55
		v57 := v54
		vals[57] = v57
		v59 := v56
		vals[59] = v59
		v61 := v58
		vals[61] = v61
		v63 := v60
		vals[63] = v63
		v65 := v62
		vals[65] = v65
		v67 := v64
		vals[67] = v67
		v69 := v66
		vals[69] = v69
		v71 := v68
		vals[71] = v71
		v73 := v70
		vals[73] = v73
		v75 := v72
		vals[75] = v75
		v77 := v74
		vals[77] = v77
		v79 := v76
		vals[79] = v79
		v81 := v78
		vals[81] = v81
		v126 := v80
		vals[126] = v126
		v181 := v127
		vals[181] = v181
		v182 := v181
		vals[182] = v182
		v184 := v128
		vals[184] = v184
		v186 := v172
		vals[186] = v186
		v187 := v186
		vals[187] = v187
		v189 := v185
		vals[189] = v189
		v191 := v174
		vals[191] = v191
		v192 := v191
		vals[192] = v192
		v194 := v190
		vals[194] = v194
		v197 := v195
		vals[197] = v197
		v198 := v197
		vals[198] = v198
		v200 := v196
		vals[200] = v200
		v203 := v130
		vals[203] = v203
		v204 := v203
		vals[204] = v204
		v206 := v201
		vals[206] = v206
		v208 := v147
		vals[208] = v208
		v209 := v208
		vals[209] = v209
		v211 := v207
		vals[211] = v211
		v213 := v150
		vals[213] = v213
		v214 := v213
		vals[214] = v214
		v216 := v212
		vals[216] = v216
		v218 := v129
		vals[218] = v218
		v219 := v218
		vals[219] = v219
		v221 := v217
		vals[221] = v221
		vals[223] = 0x0
		vals[224] = 0x0
		v227 := v222
		vals[227] = v227
		vals[229] = 0x0
		vals[230] = 0x0
		v232 := v228
		vals[232] = v232
		vals[234] = 0x0
		vals[235] = 0x0
		v237 := v233
		vals[237] = v237
		vals[239] = 0x0
		v241 := v238
		vals[241] = v241
		vals[243] = 0x0
		vals[244] = 0x0
		v246 := v242
		vals[246] = v246
		vals[248] = 0x1
		vals[249] = 0x0
		v251 := v247
		vals[251] = v251
		v254 := v252
		vals[254] = v254
		v257 := v255
		vals[257] = v257
		v260 := v258
		vals[260] = v260
		v263 := v261
		vals[263] = v263
		v266 := v264
		vals[266] = v266
		v269 := v267
		vals[269] = v269
		v272 := v270
		vals[272] = v272
		v275 := v273
		vals[275] = v275
		v278 := v276
		vals[278] = v278
		vals[287] = 0x1
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
		var v9 uint64
		if v7 != 0 {
			v9 = 0x2
		} else {
			v9 = v0
		}
		vals[9] = v9
		var v10 uint64
		if v0 == 0x2 {
			v10 = 1
		}
		vals[10] = v10
		var v15 uint64
		if v13 != 0 {
			v15 = 0x3
		} else {
			v15 = v0
		}
		vals[15] = v15
		var v16 uint64
		if v0 == 0x3 {
			v16 = 1
		}
		vals[16] = v16
		var v22 uint64
		if v0 == 0x4 {
			v22 = 1
		}
		vals[22] = v22
		var v24 uint64
		if v22 != 0 {
			v24 = 0x5
		} else {
			v24 = v0
		}
		vals[24] = v24
		var v25 uint64
		if v16 != 0 {
			v25 = v21
		} else {
			v25 = v24
		}
		vals[25] = v25
		var v26 uint64
		if v10 != 0 {
			v26 = v15
		} else {
			v26 = v25
		}
		vals[26] = v26
		var v27 uint64
		if v4 != 0 {
			v27 = v9
		} else {
			v27 = v26
		}
		vals[27] = v27
		var v28 uint64
		if v2 != 0 {
			v28 = 0x1
		} else {
			v28 = v27
		}
		vals[28] = v28
		v33 := v16 & v19
		vals[33] = v33
		var v35 uint64
		if v33 != 0 {
			v35 = v34
		} else {
			v35 = v17
		}
		vals[35] = v35
		var v36 uint64
		if v2 != 0 {
			v36 = v32
		} else {
			v36 = v35
		}
		vals[36] = v36
		v37 := (v2 | v33)
		vals[37] = v37
		var v43 uint64
		if v37 != 0 {
			v43 = 0xf
		} else {
			v43 = v42
		}
		vals[43] = v43
		v44 := v4 & v7
		vals[44] = v44
		var v50 uint64
		if v44 != 0 {
			v50 = 0x3f
		} else {
			v50 = v49
		}
		vals[50] = v50
		var v53 uint64
		if v10 != 0 {
			v53 = v52
		} else {
			v53 = v51
		}
		vals[53] = v53
		var v55 uint64
		if v10 != 0 {
			v55 = v54
		} else {
			v55 = v52
		}
		vals[55] = v55
		var v57 uint64
		if v10 != 0 {
			v57 = v56
		} else {
			v57 = v54
		}
		vals[57] = v57
		var v59 uint64
		if v10 != 0 {
			v59 = v58
		} else {
			v59 = v56
		}
		vals[59] = v59
		var v61 uint64
		if v10 != 0 {
			v61 = v60
		} else {
			v61 = v58
		}
		vals[61] = v61
		var v63 uint64
		if v10 != 0 {
			v63 = v62
		} else {
			v63 = v60
		}
		vals[63] = v63
		var v65 uint64
		if v10 != 0 {
			v65 = v64
		} else {
			v65 = v62
		}
		vals[65] = v65
		var v67 uint64
		if v10 != 0 {
			v67 = v66
		} else {
			v67 = v64
		}
		vals[67] = v67
		var v69 uint64
		if v10 != 0 {
			v69 = v68
		} else {
			v69 = v66
		}
		vals[69] = v69
		var v71 uint64
		if v10 != 0 {
			v71 = v70
		} else {
			v71 = v68
		}
		vals[71] = v71
		var v73 uint64
		if v10 != 0 {
			v73 = v72
		} else {
			v73 = v70
		}
		vals[73] = v73
		var v75 uint64
		if v10 != 0 {
			v75 = v74
		} else {
			v75 = v72
		}
		vals[75] = v75
		var v77 uint64
		if v10 != 0 {
			v77 = v76
		} else {
			v77 = v74
		}
		vals[77] = v77
		var v79 uint64
		if v10 != 0 {
			v79 = v78
		} else {
			v79 = v76
		}
		vals[79] = v79
		var v81 uint64
		if v10 != 0 {
			v81 = v80
		} else {
			v81 = v78
		}
		vals[81] = v81
		var v126 uint64
		if v10 != 0 {
			v126 = v125
		} else {
			v126 = v80
		}
		vals[126] = v126
		var v181 uint64
		if v10 != 0 {
			v181 = v180
		} else {
			v181 = v127
		}
		vals[181] = v181
		var v182 uint64
		if v4 != 0 {
			v182 = v128
		} else {
			v182 = v181
		}
		vals[182] = v182
		var v184 uint64
		if v16 != 0 {
			v184 = v183
		} else {
			v184 = v128
		}
		vals[184] = v184
		var v186 uint64
		if v10 != 0 {
			v186 = v127
		} else {
			v186 = v172
		}
		vals[186] = v186
		var v187 uint64
		if v4 != 0 {
			v187 = v185
		} else {
			v187 = v186
		}
		vals[187] = v187
		var v189 uint64
		if v16 != 0 {
			v189 = v188
		} else {
			v189 = v185
		}
		vals[189] = v189
		var v191 uint64
		if v10 != 0 {
			v191 = v172
		} else {
			v191 = v174
		}
		vals[191] = v191
		var v192 uint64
		if v4 != 0 {
			v192 = v190
		} else {
			v192 = v191
		}
		vals[192] = v192
		var v194 uint64
		if v16 != 0 {
			v194 = v193
		} else {
			v194 = v190
		}
		vals[194] = v194
		var v197 uint64
		if v10 != 0 {
			v197 = v174
		} else {
			v197 = v195
		}
		vals[197] = v197
		var v198 uint64
		if v4 != 0 {
			v198 = v196
		} else {
			v198 = v197
		}
		vals[198] = v198
		var v200 uint64
		if v16 != 0 {
			v200 = v199
		} else {
			v200 = v196
		}
		vals[200] = v200
		var v203 uint64
		if v10 != 0 {
			v203 = v202
		} else {
			v203 = v130
		}
		vals[203] = v203
		var v204 uint64
		if v4 != 0 {
			v204 = v201
		} else {
			v204 = v203
		}
		vals[204] = v204
		var v206 uint64
		if v16 != 0 {
			v206 = v205
		} else {
			v206 = v201
		}
		vals[206] = v206
		var v208 uint64
		if v10 != 0 {
			v208 = v130
		} else {
			v208 = v147
		}
		vals[208] = v208
		var v209 uint64
		if v4 != 0 {
			v209 = v207
		} else {
			v209 = v208
		}
		vals[209] = v209
		var v211 uint64
		if v16 != 0 {
			v211 = v210
		} else {
			v211 = v207
		}
		vals[211] = v211
		var v213 uint64
		if v10 != 0 {
			v213 = v147
		} else {
			v213 = v150
		}
		vals[213] = v213
		var v214 uint64
		if v4 != 0 {
			v214 = v212
		} else {
			v214 = v213
		}
		vals[214] = v214
		var v216 uint64
		if v16 != 0 {
			v216 = v215
		} else {
			v216 = v212
		}
		vals[216] = v216
		var v218 uint64
		if v10 != 0 {
			v218 = v150
		} else {
			v218 = v129
		}
		vals[218] = v218
		var v219 uint64
		if v4 != 0 {
			v219 = v217
		} else {
			v219 = v218
		}
		vals[219] = v219
		var v221 uint64
		if v16 != 0 {
			v221 = v220
		} else {
			v221 = v217
		}
		vals[221] = v221
		var v223 uint64
		if v28 == 0x1 {
			v223 = 1
		}
		vals[223] = v223
		v224 := v2 & v223
		vals[224] = v224
		var v227 uint64
		if v224 != 0 {
			v227 = v226
		} else {
			v227 = v222
		}
		vals[227] = v227
		var v229 uint64
		if v28 == 0x2 {
			v229 = 1
		}
		vals[229] = v229
		v230 := v4 & v229
		vals[230] = v230
		var v232 uint64
		if v230 != 0 {
			v232 = v231
		} else {
			v232 = v228
		}
		vals[232] = v232
		var v234 uint64
		if v28 == 0x3 {
			v234 = 1
		}
		vals[234] = v234
		v235 := v10 & v234
		vals[235] = v235
		var v237 uint64
		if v235 != 0 {
			v237 = v236
		} else {
			v237 = v233
		}
		vals[237] = v237
		v239 := v16 & v223
		vals[239] = v239
		var v241 uint64
		if v239 != 0 {
			v241 = v240
		} else {
			v241 = v238
		}
		vals[241] = v241
		var v243 uint64
		if v28 == 0x4 {
			v243 = 1
		}
		vals[243] = v243
		v244 := v16 & v243
		vals[244] = v244
		var v246 uint64
		if v244 != 0 {
			v246 = v245
		} else {
			v246 = v242
		}
		vals[246] = v246
		var v248 uint64
		if v28 == 0x5 {
			v248 = 1
		}
		vals[248] = v248
		v249 := v22 & v248
		vals[249] = v249
		var v251 uint64
		if v249 != 0 {
			v251 = v250
		} else {
			v251 = v247
		}
		vals[251] = v251
		var v254 uint64
		if v2 != 0 {
			v254 = v253
		} else {
			v254 = v252
		}
		vals[254] = v254
		var v257 uint64
		if v2 != 0 {
			v257 = v256
		} else {
			v257 = v255
		}
		vals[257] = v257
		var v260 uint64
		if v2 != 0 {
			v260 = v259
		} else {
			v260 = v258
		}
		vals[260] = v260
		var v263 uint64
		if v37 != 0 {
			v263 = v262
		} else {
			v263 = v261
		}
		vals[263] = v263
		var v266 uint64
		if v37 != 0 {
			v266 = v265
		} else {
			v266 = v264
		}
		vals[266] = v266
		var v269 uint64
		if v37 != 0 {
			v269 = v268
		} else {
			v269 = v267
		}
		vals[269] = v269
		var v272 uint64
		if v44 != 0 {
			v272 = v271
		} else {
			v272 = v270
		}
		vals[272] = v272
		var v275 uint64
		if v44 != 0 {
			v275 = v274
		} else {
			v275 = v273
		}
		vals[275] = v275
		var v278 uint64
		if v44 != 0 {
			v278 = v277
		} else {
			v278 = v276
		}
		vals[278] = v278
		var v287 uint64
		if v0 == 0x5 {
			v287 = 1
		}
		vals[287] = v287
	}
	done := vals[287] != 0
	if vals[22] != 0 {
		if addr := vals[279]; addr < uint64(len(m2)) {
			m2[addr] = vals[128]
		}
	}
	if vals[22] != 0 {
		if addr := vals[280]; addr < uint64(len(m2)) {
			m2[addr] = vals[185]
		}
	}
	if vals[22] != 0 {
		if addr := vals[281]; addr < uint64(len(m2)) {
			m2[addr] = vals[190]
		}
	}
	if vals[22] != 0 {
		if addr := vals[282]; addr < uint64(len(m2)) {
			m2[addr] = vals[196]
		}
	}
	if vals[22] != 0 {
		if addr := vals[283]; addr < uint64(len(m2)) {
			m2[addr] = vals[201]
		}
	}
	if vals[22] != 0 {
		if addr := vals[284]; addr < uint64(len(m2)) {
			m2[addr] = vals[207]
		}
	}
	if vals[22] != 0 {
		if addr := vals[285]; addr < uint64(len(m2)) {
			m2[addr] = vals[212]
		}
	}
	if vals[22] != 0 {
		if addr := vals[286]; addr < uint64(len(m2)) {
			m2[addr] = vals[217]
		}
	}
	l0 := vals[28] & 0x7
	l1 := vals[36] & 0xffff
	l2 := vals[43] & 0x1f
	l3 := vals[50] & 0x7f
	l4 := vals[53] & 0xffffffff
	l5 := vals[55] & 0xffffffff
	l6 := vals[57] & 0xffffffff
	l7 := vals[59] & 0xffffffff
	l8 := vals[61] & 0xffffffff
	l9 := vals[63] & 0xffffffff
	l10 := vals[65] & 0xffffffff
	l11 := vals[67] & 0xffffffff
	l12 := vals[69] & 0xffffffff
	l13 := vals[71] & 0xffffffff
	l14 := vals[73] & 0xffffffff
	l15 := vals[75] & 0xffffffff
	l16 := vals[77] & 0xffffffff
	l17 := vals[79] & 0xffffffff
	l18 := vals[81] & 0xffffffff
	l19 := vals[126] & 0xffffffff
	l20 := vals[182] & 0xffffffff
	l21 := vals[184] & 0xffffffff
	l22 := vals[187] & 0xffffffff
	l23 := vals[189] & 0xffffffff
	l24 := vals[192] & 0xffffffff
	l25 := vals[194] & 0xffffffff
	l26 := vals[198] & 0xffffffff
	l27 := vals[200] & 0xffffffff
	l28 := vals[204] & 0xffffffff
	l29 := vals[206] & 0xffffffff
	l30 := vals[209] & 0xffffffff
	l31 := vals[211] & 0xffffffff
	l32 := vals[214] & 0xffffffff
	l33 := vals[216] & 0xffffffff
	l34 := vals[219] & 0xffffffff
	l35 := vals[221] & 0xffffffff
	l36 := vals[227] & 0xffffff
	l37 := vals[232] & 0xffffff
	l38 := vals[237] & 0xffffff
	l39 := vals[241] & 0xffffff
	l40 := vals[246] & 0xffffff
	l41 := vals[251] & 0xffffff
	l42 := vals[254] & 0xffffff
	l43 := vals[257] & 0xffffff
	l44 := vals[260] & 0xffffff
	l45 := vals[263] & 0xffffff
	l46 := vals[266] & 0xffffff
	l47 := vals[269] & 0xffffff
	l48 := vals[272] & 0xffffff
	l49 := vals[275] & 0xffffff
	l50 := vals[278] & 0xffffff
	vals[0] = l0
	vals[17] = l1
	vals[5] = l2
	vals[11] = l3
	vals[51] = l4
	vals[52] = l5
	vals[54] = l6
	vals[56] = l7
	vals[58] = l8
	vals[60] = l9
	vals[62] = l10
	vals[64] = l11
	vals[66] = l12
	vals[68] = l13
	vals[70] = l14
	vals[72] = l15
	vals[74] = l16
	vals[76] = l17
	vals[78] = l18
	vals[80] = l19
	vals[127] = l20
	vals[128] = l21
	vals[172] = l22
	vals[185] = l23
	vals[174] = l24
	vals[190] = l25
	vals[195] = l26
	vals[196] = l27
	vals[130] = l28
	vals[201] = l29
	vals[147] = l30
	vals[207] = l31
	vals[150] = l32
	vals[212] = l33
	vals[129] = l34
	vals[217] = l35
	vals[222] = l36
	vals[228] = l37
	vals[233] = l38
	vals[238] = l39
	vals[242] = l40
	vals[247] = l41
	vals[252] = l42
	vals[255] = l43
	vals[258] = l44
	vals[261] = l45
	vals[264] = l46
	vals[267] = l47
	vals[270] = l48
	vals[273] = l49
	vals[276] = l50
	return cycles + 1, done
}

func step_sha_cone(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[61]
	m0 := mems[0]
	v0 := vals[0]
	v5 := vals[5]
	v11 := vals[11]
	v17 := vals[17]
	v51 := vals[51]
	v55 := vals[55]
	v58 := vals[58]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v39 uint64
		if v11 != 0x0 {
			v39 = 1
		}
		v41 := (v11 - 0x1) & 0x7f
		var v42 uint64
		if v39 != 0 {
			v42 = v41
		} else {
			v42 = v11
		}
		switch v0 {
		case 0x0:
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0xffff
			}
			v32 := (v30 - 0x1) & 0xffff
			v56 := (v55 + 0x1) & 0xffffff
			v59 := (v58 + 0x1) & 0xffffff
			v36 := v32
			v43 := v42
			v54 := v51
			v57 := v56
			v60 := v59
			n1 := v36
			n2 := v43
			n4 := v54
			n5 := v57
			n6 := v60
			v0 = 0x1
			v17 = n1
			v11 = n2
			v5 = 0xf
			v51 = n4
			v55 = n5
			v58 = n6
		case 0x1:
			var v7 uint64
			if v5 == 0x0 {
				v7 = 1
			}
			var v46 uint64
			if v5 != 0x0 {
				v46 = 1
			}
			v48 := (v5 - 0x1) & 0x1f
			var v49 uint64
			if v46 != 0 {
				v49 = v48
			} else {
				v49 = v5
			}
			v53 := (v51 + 0x1) & 0xffffff
			var v9 uint64
			if v7 != 0 {
				v9 = 0x2
			} else {
				v9 = 0x1
			}
			v27 := v9
			v28 := v27
			v35 := v17
			v36 := v35
			v37 := v7
			var v43 uint64
			if v37 != 0 {
				v43 = 0x3f
			} else {
				v43 = v42
			}
			v50 := v49
			var v54 uint64
			if v37 != 0 {
				v54 = v53
			} else {
				v54 = v51
			}
			v57 := v55
			v60 := v58
			n0 := v28
			n1 := v36
			n2 := v43
			n3 := v50
			n4 := v54
			n5 := v57
			n6 := v60
			v0 = n0
			v17 = n1
			v11 = n2
			v5 = n3
			v51 = n4
			v55 = n5
			v58 = n6
		case 0x2:
			var v13 uint64
			if v11 == 0x0 {
				v13 = 1
			}
			var v46 uint64
			if v5 != 0x0 {
				v46 = 1
			}
			v48 := (v5 - 0x1) & 0x1f
			var v49 uint64
			if v46 != 0 {
				v49 = v48
			} else {
				v49 = v5
			}
			var v15 uint64
			if v13 != 0 {
				v15 = 0x3
			} else {
				v15 = 0x2
			}
			v26 := v15
			v27 := v26
			v28 := v27
			v35 := v17
			v36 := v35
			v43 := v42
			v50 := v49
			v54 := v51
			v57 := v55
			v60 := v58
			n0 := v28
			n1 := v36
			n2 := v43
			n3 := v50
			n4 := v54
			n5 := v57
			n6 := v60
			v0 = n0
			v17 = n1
			v11 = n2
			v5 = n3
			v51 = n4
			v55 = n5
			v58 = n6
		case 0x3:
			var v19 uint64
			if v17 != 0x0 {
				v19 = 1
			}
			var v21 uint64
			if v19 != 0 {
				v21 = 0x1
			} else {
				v21 = 0x4
			}
			v34 := (v17 - 0x1) & 0xffff
			var v46 uint64
			if v5 != 0x0 {
				v46 = 1
			}
			v48 := (v5 - 0x1) & 0x1f
			var v49 uint64
			if v46 != 0 {
				v49 = v48
			} else {
				v49 = v5
			}
			v56 := (v55 + 0x1) & 0xffffff
			v25 := v21
			v26 := v25
			v27 := v26
			v28 := v27
			v33 := v19
			var v35 uint64
			if v33 != 0 {
				v35 = v34
			} else {
				v35 = v17
			}
			v36 := v35
			v43 := v42
			v44 := v33
			var v50 uint64
			if v44 != 0 {
				v50 = 0xf
			} else {
				v50 = v49
			}
			v54 := v51
			var v57 uint64
			if v44 != 0 {
				v57 = v56
			} else {
				v57 = v55
			}
			v60 := v58
			n0 := v28
			n1 := v36
			n2 := v43
			n3 := v50
			n4 := v54
			n5 := v57
			n6 := v60
			v0 = n0
			v17 = n1
			v11 = n2
			v5 = n3
			v51 = n4
			v55 = n5
			v58 = n6
		case 0x4:
			var v46 uint64
			if v5 != 0x0 {
				v46 = 1
			}
			v48 := (v5 - 0x1) & 0x1f
			var v49 uint64
			if v46 != 0 {
				v49 = v48
			} else {
				v49 = v5
			}
			v35 := v17
			v36 := v35
			v43 := v42
			v50 := v49
			v54 := v51
			v57 := v55
			v60 := v58
			n1 := v36
			n2 := v43
			n3 := v50
			n4 := v54
			n5 := v57
			n6 := v60
			v0 = 0x5
			v17 = n1
			v11 = n2
			v5 = n3
			v51 = n4
			v55 = n5
			v58 = n6
		case 0x5:
			break loop
		default:
			var v7 uint64
			if v5 == 0x0 {
				v7 = 1
			}
			var v13 uint64
			if v11 == 0x0 {
				v13 = 1
			}
			var v19 uint64
			if v17 != 0x0 {
				v19 = 1
			}
			var v21 uint64
			if v19 != 0 {
				v21 = 0x1
			} else {
				v21 = 0x4
			}
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0xffff
			}
			v32 := (v30 - 0x1) & 0xffff
			v34 := (v17 - 0x1) & 0xffff
			var v46 uint64
			if v5 != 0x0 {
				v46 = 1
			}
			v48 := (v5 - 0x1) & 0x1f
			var v49 uint64
			if v46 != 0 {
				v49 = v48
			} else {
				v49 = v5
			}
			v53 := (v51 + 0x1) & 0xffffff
			v56 := (v55 + 0x1) & 0xffffff
			v59 := (v58 + 0x1) & 0xffffff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v9 uint64
			if v7 != 0 {
				v9 = 0x2
			} else {
				v9 = v0
			}
			var v10 uint64
			if v0 == 0x2 {
				v10 = 1
			}
			var v15 uint64
			if v13 != 0 {
				v15 = 0x3
			} else {
				v15 = v0
			}
			var v16 uint64
			if v0 == 0x3 {
				v16 = 1
			}
			var v22 uint64
			if v0 == 0x4 {
				v22 = 1
			}
			var v24 uint64
			if v22 != 0 {
				v24 = 0x5
			} else {
				v24 = v0
			}
			var v25 uint64
			if v16 != 0 {
				v25 = v21
			} else {
				v25 = v24
			}
			var v26 uint64
			if v10 != 0 {
				v26 = v15
			} else {
				v26 = v25
			}
			var v27 uint64
			if v4 != 0 {
				v27 = v9
			} else {
				v27 = v26
			}
			var v28 uint64
			if v2 != 0 {
				v28 = 0x1
			} else {
				v28 = v27
			}
			v33 := v16 & v19
			var v35 uint64
			if v33 != 0 {
				v35 = v34
			} else {
				v35 = v17
			}
			var v36 uint64
			if v2 != 0 {
				v36 = v32
			} else {
				v36 = v35
			}
			v37 := v4 & v7
			var v43 uint64
			if v37 != 0 {
				v43 = 0x3f
			} else {
				v43 = v42
			}
			v44 := (v2 | v33)
			var v50 uint64
			if v44 != 0 {
				v50 = 0xf
			} else {
				v50 = v49
			}
			var v54 uint64
			if v37 != 0 {
				v54 = v53
			} else {
				v54 = v51
			}
			var v57 uint64
			if v44 != 0 {
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
			var v61 uint64
			if v0 == 0x5 {
				v61 = 1
			}
			if v61 != 0 {
				break loop
			}
			n0 := v28
			n1 := v36
			n2 := v43
			n3 := v50
			n4 := v54
			n5 := v57
			n6 := v60
			v0 = n0
			v17 = n1
			v11 = n2
			v5 = n3
			v51 = n4
			v55 = n5
			v58 = n6
		}
	}
	vals[0] = v0
	vals[17] = v17
	vals[11] = v11
	vals[5] = v5
	vals[51] = v51
	vals[55] = v55
	vals[58] = v58
	var v7 uint64
	if v5 == 0x0 {
		v7 = 1
	}
	vals[7] = v7
	var v13 uint64
	if v11 == 0x0 {
		v13 = 1
	}
	vals[13] = v13
	var v19 uint64
	if v17 != 0x0 {
		v19 = 1
	}
	vals[19] = v19
	var v21 uint64
	if v19 != 0 {
		v21 = 0x1
	} else {
		v21 = 0x4
	}
	vals[21] = v21
	var v30 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v30 = m0[addr] & 0xffff
	}
	vals[30] = v30
	v32 := (v30 - 0x1) & 0xffff
	vals[32] = v32
	v34 := (v17 - 0x1) & 0xffff
	vals[34] = v34
	var v39 uint64
	if v11 != 0x0 {
		v39 = 1
	}
	vals[39] = v39
	v41 := (v11 - 0x1) & 0x7f
	vals[41] = v41
	var v42 uint64
	if v39 != 0 {
		v42 = v41
	} else {
		v42 = v11
	}
	vals[42] = v42
	var v46 uint64
	if v5 != 0x0 {
		v46 = 1
	}
	vals[46] = v46
	v48 := (v5 - 0x1) & 0x1f
	vals[48] = v48
	var v49 uint64
	if v46 != 0 {
		v49 = v48
	} else {
		v49 = v5
	}
	vals[49] = v49
	v53 := (v51 + 0x1) & 0xffffff
	vals[53] = v53
	v56 := (v55 + 0x1) & 0xffffff
	vals[56] = v56
	v59 := (v58 + 0x1) & 0xffffff
	vals[59] = v59
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		var v9 uint64
		if v7 != 0 {
			v9 = 0x2
		} else {
			v9 = 0x0
		}
		vals[9] = v9
		vals[10] = 0x0
		var v15 uint64
		if v13 != 0 {
			v15 = 0x3
		} else {
			v15 = 0x0
		}
		vals[15] = v15
		vals[16] = 0x0
		vals[22] = 0x0
		vals[24] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[27] = 0x0
		vals[28] = 0x1
		vals[33] = 0x0
		v35 := v17
		vals[35] = v35
		v36 := v32
		vals[36] = v36
		vals[37] = 0x0
		v43 := v42
		vals[43] = v43
		vals[44] = 0x1
		vals[50] = 0xf
		v54 := v51
		vals[54] = v54
		v57 := v56
		vals[57] = v57
		v60 := v59
		vals[60] = v60
		vals[61] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		var v9 uint64
		if v7 != 0 {
			v9 = 0x2
		} else {
			v9 = 0x1
		}
		vals[9] = v9
		vals[10] = 0x0
		var v15 uint64
		if v13 != 0 {
			v15 = 0x3
		} else {
			v15 = 0x1
		}
		vals[15] = v15
		vals[16] = 0x0
		vals[22] = 0x0
		vals[24] = 0x1
		vals[25] = 0x1
		vals[26] = 0x1
		v27 := v9
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		vals[33] = 0x0
		v35 := v17
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v37 := v7
		vals[37] = v37
		var v43 uint64
		if v37 != 0 {
			v43 = 0x3f
		} else {
			v43 = v42
		}
		vals[43] = v43
		vals[44] = 0x0
		v50 := v49
		vals[50] = v50
		var v54 uint64
		if v37 != 0 {
			v54 = v53
		} else {
			v54 = v51
		}
		vals[54] = v54
		v57 := v55
		vals[57] = v57
		v60 := v58
		vals[60] = v60
		vals[61] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		var v9 uint64
		if v7 != 0 {
			v9 = 0x2
		} else {
			v9 = 0x2
		}
		vals[9] = v9
		vals[10] = 0x1
		var v15 uint64
		if v13 != 0 {
			v15 = 0x3
		} else {
			v15 = 0x2
		}
		vals[15] = v15
		vals[16] = 0x0
		vals[22] = 0x0
		vals[24] = 0x2
		vals[25] = 0x2
		v26 := v15
		vals[26] = v26
		v27 := v26
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		vals[33] = 0x0
		v35 := v17
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		vals[37] = 0x0
		v43 := v42
		vals[43] = v43
		vals[44] = 0x0
		v50 := v49
		vals[50] = v50
		v54 := v51
		vals[54] = v54
		v57 := v55
		vals[57] = v57
		v60 := v58
		vals[60] = v60
		vals[61] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		var v9 uint64
		if v7 != 0 {
			v9 = 0x2
		} else {
			v9 = 0x3
		}
		vals[9] = v9
		vals[10] = 0x0
		var v15 uint64
		if v13 != 0 {
			v15 = 0x3
		} else {
			v15 = 0x3
		}
		vals[15] = v15
		vals[16] = 0x1
		vals[22] = 0x0
		vals[24] = 0x3
		v25 := v21
		vals[25] = v25
		v26 := v25
		vals[26] = v26
		v27 := v26
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v33 := v19
		vals[33] = v33
		var v35 uint64
		if v33 != 0 {
			v35 = v34
		} else {
			v35 = v17
		}
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		vals[37] = 0x0
		v43 := v42
		vals[43] = v43
		v44 := v33
		vals[44] = v44
		var v50 uint64
		if v44 != 0 {
			v50 = 0xf
		} else {
			v50 = v49
		}
		vals[50] = v50
		v54 := v51
		vals[54] = v54
		var v57 uint64
		if v44 != 0 {
			v57 = v56
		} else {
			v57 = v55
		}
		vals[57] = v57
		v60 := v58
		vals[60] = v60
		vals[61] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		var v9 uint64
		if v7 != 0 {
			v9 = 0x2
		} else {
			v9 = 0x4
		}
		vals[9] = v9
		vals[10] = 0x0
		var v15 uint64
		if v13 != 0 {
			v15 = 0x3
		} else {
			v15 = 0x4
		}
		vals[15] = v15
		vals[16] = 0x0
		vals[22] = 0x1
		vals[24] = 0x5
		vals[25] = 0x5
		vals[26] = 0x5
		vals[27] = 0x5
		vals[28] = 0x5
		vals[33] = 0x0
		v35 := v17
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		vals[37] = 0x0
		v43 := v42
		vals[43] = v43
		vals[44] = 0x0
		v50 := v49
		vals[50] = v50
		v54 := v51
		vals[54] = v54
		v57 := v55
		vals[57] = v57
		v60 := v58
		vals[60] = v60
		vals[61] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		var v9 uint64
		if v7 != 0 {
			v9 = 0x2
		} else {
			v9 = 0x5
		}
		vals[9] = v9
		vals[10] = 0x0
		var v15 uint64
		if v13 != 0 {
			v15 = 0x3
		} else {
			v15 = 0x5
		}
		vals[15] = v15
		vals[16] = 0x0
		vals[22] = 0x0
		vals[24] = 0x5
		vals[25] = 0x5
		vals[26] = 0x5
		vals[27] = 0x5
		vals[28] = 0x5
		vals[33] = 0x0
		v35 := v17
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		vals[37] = 0x0
		v43 := v42
		vals[43] = v43
		vals[44] = 0x0
		v50 := v49
		vals[50] = v50
		v54 := v51
		vals[54] = v54
		v57 := v55
		vals[57] = v57
		v60 := v58
		vals[60] = v60
		vals[61] = 0x1
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
		var v9 uint64
		if v7 != 0 {
			v9 = 0x2
		} else {
			v9 = v0
		}
		vals[9] = v9
		var v10 uint64
		if v0 == 0x2 {
			v10 = 1
		}
		vals[10] = v10
		var v15 uint64
		if v13 != 0 {
			v15 = 0x3
		} else {
			v15 = v0
		}
		vals[15] = v15
		var v16 uint64
		if v0 == 0x3 {
			v16 = 1
		}
		vals[16] = v16
		var v22 uint64
		if v0 == 0x4 {
			v22 = 1
		}
		vals[22] = v22
		var v24 uint64
		if v22 != 0 {
			v24 = 0x5
		} else {
			v24 = v0
		}
		vals[24] = v24
		var v25 uint64
		if v16 != 0 {
			v25 = v21
		} else {
			v25 = v24
		}
		vals[25] = v25
		var v26 uint64
		if v10 != 0 {
			v26 = v15
		} else {
			v26 = v25
		}
		vals[26] = v26
		var v27 uint64
		if v4 != 0 {
			v27 = v9
		} else {
			v27 = v26
		}
		vals[27] = v27
		var v28 uint64
		if v2 != 0 {
			v28 = 0x1
		} else {
			v28 = v27
		}
		vals[28] = v28
		v33 := v16 & v19
		vals[33] = v33
		var v35 uint64
		if v33 != 0 {
			v35 = v34
		} else {
			v35 = v17
		}
		vals[35] = v35
		var v36 uint64
		if v2 != 0 {
			v36 = v32
		} else {
			v36 = v35
		}
		vals[36] = v36
		v37 := v4 & v7
		vals[37] = v37
		var v43 uint64
		if v37 != 0 {
			v43 = 0x3f
		} else {
			v43 = v42
		}
		vals[43] = v43
		v44 := (v2 | v33)
		vals[44] = v44
		var v50 uint64
		if v44 != 0 {
			v50 = 0xf
		} else {
			v50 = v49
		}
		vals[50] = v50
		var v54 uint64
		if v37 != 0 {
			v54 = v53
		} else {
			v54 = v51
		}
		vals[54] = v54
		var v57 uint64
		if v44 != 0 {
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
		var v61 uint64
		if v0 == 0x5 {
			v61 = 1
		}
		vals[61] = v61
	}
	done := vals[61] != 0
	l0 := vals[28] & 0x7
	l1 := vals[36] & 0xffff
	l2 := vals[43] & 0x7f
	l3 := vals[50] & 0x1f
	l4 := vals[54] & 0xffffff
	l5 := vals[57] & 0xffffff
	l6 := vals[60] & 0xffffff
	vals[0] = l0
	vals[17] = l1
	vals[11] = l2
	vals[5] = l3
	vals[51] = l4
	vals[55] = l5
	vals[58] = l6
	return cycles + 1, done
}

func step_sha_slice_all(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[86]
	m0 := mems[0]
	v0 := vals[0]
	v9 := vals[9]
	v29 := vals[29]
	v31 := vals[31]
	v35 := vals[35]
	v39 := vals[39]
	v40 := vals[40]
	v45 := vals[45]
	v48 := vals[48]
	v51 := vals[51]
	v54 := vals[54]
	v57 := vals[57]
	v62 := vals[62]
	v67 := vals[67]
	v72 := vals[72]
	v77 := vals[77]
	v82 := vals[82]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			var v22 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v22 = m0[addr] & 0xffff
			}
			v24 := (v22 - 0x1) & 0xffff
			v43 := (v40 + 0xf) & 0xffffff
			v46 := (v45 + 0x1) & 0xffffff
			v49 := (v48 + v9) & 0xffffff
			v52 := (v51 + v24) & 0xffffff
			v55 := (v54 + 0x1) & 0xffffff
			v84 := (v82 + 0x1) & 0xffffff
			v28 := v24
			v34 := v31
			v38 := v35
			v44 := v43
			v47 := v46
			v50 := v49
			v53 := v52
			v56 := v55
			v61 := v57
			v66 := v62
			v71 := v67
			v76 := v72
			v81 := v77
			v85 := v84
			n1 := v28
			n3 := v34
			n4 := v38
			n6 := v44
			n7 := v47
			n8 := v50
			n9 := v53
			n10 := v56
			n11 := v61
			n12 := v66
			n13 := v71
			n14 := v76
			n15 := v81
			n16 := v85
			v0 = 0x1
			v9 = n1
			v29 = 0x0
			v31 = n3
			v35 = n4
			v39 = 0x0
			v40 = n6
			v45 = n7
			v48 = n8
			v51 = n9
			v54 = n10
			v57 = n11
			v62 = n12
			v67 = n13
			v72 = n14
			v77 = n15
			v82 = n16
		case 0x1:
			v33 := (v31 + 0x3f) & 0xffffff
			v37 := (v35 + 0x1) & 0xffffff
			v80 := (v77 + 0x1) & 0xffffff
			v27 := v9
			v28 := v27
			v34 := v33
			v38 := v37
			v44 := v40
			v47 := v45
			v50 := v48
			v53 := v51
			v56 := v54
			v61 := v57
			v66 := v62
			v71 := v67
			v76 := v72
			v81 := v80
			v85 := v82
			n1 := v28
			n3 := v34
			n4 := v38
			n6 := v44
			n7 := v47
			n8 := v50
			n9 := v53
			n10 := v56
			n11 := v61
			n12 := v66
			n13 := v71
			n14 := v76
			n15 := v81
			n16 := v85
			v0 = 0x2
			v9 = n1
			v29 = 0x0
			v31 = n3
			v35 = n4
			v39 = 0x0
			v40 = n6
			v45 = n7
			v48 = n8
			v51 = n9
			v54 = n10
			v57 = n11
			v62 = n12
			v67 = n13
			v72 = n14
			v77 = n15
			v82 = n16
		case 0x2:
			v75 := (v72 + 0x1) & 0xffffff
			v27 := v9
			v28 := v27
			v34 := v31
			v38 := v35
			v44 := v40
			v47 := v45
			v50 := v48
			v53 := v51
			v56 := v54
			v61 := v57
			v66 := v62
			v71 := v67
			v76 := v75
			v81 := v77
			v85 := v82
			n1 := v28
			n3 := v34
			n4 := v38
			n6 := v44
			n7 := v47
			n8 := v50
			n9 := v53
			n10 := v56
			n11 := v61
			n12 := v66
			n13 := v71
			n14 := v76
			n15 := v81
			n16 := v85
			v0 = 0x3
			v9 = n1
			v29 = 0x0
			v31 = n3
			v35 = n4
			v39 = 0x0
			v40 = n6
			v45 = n7
			v48 = n8
			v51 = n9
			v54 = n10
			v57 = n11
			v62 = n12
			v67 = n13
			v72 = n14
			v77 = n15
			v82 = n16
		case 0x3:
			var v11 uint64
			if v9 != 0x0 {
				v11 = 1
			}
			var v13 uint64
			if v11 != 0 {
				v13 = 0x1
			} else {
				v13 = 0x4
			}
			v26 := (v9 - 0x1) & 0xffff
			v43 := (v40 + 0xf) & 0xffffff
			v46 := (v45 + 0x1) & 0xffffff
			v65 := (v62 + 0x1) & 0xffffff
			v70 := (v67 + 0x1) & 0xffffff
			v17 := v13
			v18 := v17
			v19 := v18
			v20 := v19
			v25 := v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			v28 := v27
			v34 := v31
			v38 := v35
			v41 := v25
			var v44 uint64
			if v41 != 0 {
				v44 = v43
			} else {
				v44 = v40
			}
			var v47 uint64
			if v41 != 0 {
				v47 = v46
			} else {
				v47 = v45
			}
			v50 := v48
			v53 := v51
			v56 := v54
			v61 := v57
			var v63 uint64
			if v20 == 0x4 {
				v63 = 1
			}
			v64 := v63
			var v66 uint64
			if v64 != 0 {
				v66 = v65
			} else {
				v66 = v62
			}
			var v68 uint64
			if v20 == 0x1 {
				v68 = 1
			}
			v69 := v68
			var v71 uint64
			if v69 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			v76 := v72
			v81 := v77
			v85 := v82
			n0 := v20
			n1 := v28
			n3 := v34
			n4 := v38
			n6 := v44
			n7 := v47
			n8 := v50
			n9 := v53
			n10 := v56
			n11 := v61
			n12 := v66
			n13 := v71
			n14 := v76
			n15 := v81
			n16 := v85
			v0 = n0
			v9 = n1
			v29 = 0x0
			v31 = n3
			v35 = n4
			v39 = 0x0
			v40 = n6
			v45 = n7
			v48 = n8
			v51 = n9
			v54 = n10
			v57 = n11
			v62 = n12
			v67 = n13
			v72 = n14
			v77 = n15
			v82 = n16
		case 0x4:
			v60 := (v57 + 0x1) & 0xffffff
			v27 := v9
			v28 := v27
			v34 := v31
			v38 := v35
			v44 := v40
			v47 := v45
			v50 := v48
			v53 := v51
			v56 := v54
			v61 := v60
			v66 := v62
			v71 := v67
			v76 := v72
			v81 := v77
			v85 := v82
			n1 := v28
			n3 := v34
			n4 := v38
			n6 := v44
			n7 := v47
			n8 := v50
			n9 := v53
			n10 := v56
			n11 := v61
			n12 := v66
			n13 := v71
			n14 := v76
			n15 := v81
			n16 := v85
			v0 = 0x5
			v9 = n1
			v29 = 0x0
			v31 = n3
			v35 = n4
			v39 = 0x0
			v40 = n6
			v45 = n7
			v48 = n8
			v51 = n9
			v54 = n10
			v57 = n11
			v62 = n12
			v67 = n13
			v72 = n14
			v77 = n15
			v82 = n16
		case 0x5:
			break loop
		default:
			var v11 uint64
			if v9 != 0x0 {
				v11 = 1
			}
			var v13 uint64
			if v11 != 0 {
				v13 = 0x1
			} else {
				v13 = 0x4
			}
			var v22 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v22 = m0[addr] & 0xffff
			}
			v24 := (v22 - 0x1) & 0xffff
			v26 := (v9 - 0x1) & 0xffff
			v33 := (v31 + 0x3f) & 0xffffff
			v37 := (v35 + 0x1) & 0xffffff
			v43 := (v40 + 0xf) & 0xffffff
			v46 := (v45 + 0x1) & 0xffffff
			v49 := (v48 + v9) & 0xffffff
			v52 := (v51 + v24) & 0xffffff
			v55 := (v54 + 0x1) & 0xffffff
			v60 := (v57 + 0x1) & 0xffffff
			v65 := (v62 + 0x1) & 0xffffff
			v70 := (v67 + 0x1) & 0xffffff
			v75 := (v72 + 0x1) & 0xffffff
			v80 := (v77 + 0x1) & 0xffffff
			v84 := (v82 + 0x1) & 0xffffff
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
			var v14 uint64
			if v0 == 0x4 {
				v14 = 1
			}
			var v16 uint64
			if v14 != 0 {
				v16 = 0x5
			} else {
				v16 = v0
			}
			var v17 uint64
			if v8 != 0 {
				v17 = v13
			} else {
				v17 = v16
			}
			var v18 uint64
			if v6 != 0 {
				v18 = 0x3
			} else {
				v18 = v17
			}
			var v19 uint64
			if v4 != 0 {
				v19 = 0x2
			} else {
				v19 = v18
			}
			var v20 uint64
			if v2 != 0 {
				v20 = 0x1
			} else {
				v20 = v19
			}
			v25 := v8 & v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			var v28 uint64
			if v2 != 0 {
				v28 = v24
			} else {
				v28 = v27
			}
			var v34 uint64
			if v4 != 0 {
				v34 = v33
			} else {
				v34 = v31
			}
			var v38 uint64
			if v4 != 0 {
				v38 = v37
			} else {
				v38 = v35
			}
			v41 := (v2 | v25)
			var v44 uint64
			if v41 != 0 {
				v44 = v43
			} else {
				v44 = v40
			}
			var v47 uint64
			if v41 != 0 {
				v47 = v46
			} else {
				v47 = v45
			}
			var v50 uint64
			if v2 != 0 {
				v50 = v49
			} else {
				v50 = v48
			}
			var v53 uint64
			if v2 != 0 {
				v53 = v52
			} else {
				v53 = v51
			}
			var v56 uint64
			if v2 != 0 {
				v56 = v55
			} else {
				v56 = v54
			}
			var v58 uint64
			if v20 == 0x5 {
				v58 = 1
			}
			v59 := v14 & v58
			var v61 uint64
			if v59 != 0 {
				v61 = v60
			} else {
				v61 = v57
			}
			var v63 uint64
			if v20 == 0x4 {
				v63 = 1
			}
			v64 := v8 & v63
			var v66 uint64
			if v64 != 0 {
				v66 = v65
			} else {
				v66 = v62
			}
			var v68 uint64
			if v20 == 0x1 {
				v68 = 1
			}
			v69 := v8 & v68
			var v71 uint64
			if v69 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			var v73 uint64
			if v20 == 0x3 {
				v73 = 1
			}
			v74 := v6 & v73
			var v76 uint64
			if v74 != 0 {
				v76 = v75
			} else {
				v76 = v72
			}
			var v78 uint64
			if v20 == 0x2 {
				v78 = 1
			}
			v79 := v4 & v78
			var v81 uint64
			if v79 != 0 {
				v81 = v80
			} else {
				v81 = v77
			}
			v83 := v2 & v68
			var v85 uint64
			if v83 != 0 {
				v85 = v84
			} else {
				v85 = v82
			}
			var v86 uint64
			if v0 == 0x5 {
				v86 = 1
			}
			if v86 != 0 {
				break loop
			}
			n0 := v20
			n1 := v28
			n3 := v34
			n4 := v38
			n6 := v44
			n7 := v47
			n8 := v50
			n9 := v53
			n10 := v56
			n11 := v61
			n12 := v66
			n13 := v71
			n14 := v76
			n15 := v81
			n16 := v85
			v0 = n0
			v9 = n1
			v29 = 0x0
			v31 = n3
			v35 = n4
			v39 = 0x0
			v40 = n6
			v45 = n7
			v48 = n8
			v51 = n9
			v54 = n10
			v57 = n11
			v62 = n12
			v67 = n13
			v72 = n14
			v77 = n15
			v82 = n16
		}
	}
	vals[0] = v0
	vals[9] = v9
	vals[29] = v29
	vals[31] = v31
	vals[35] = v35
	vals[39] = v39
	vals[40] = v40
	vals[45] = v45
	vals[48] = v48
	vals[51] = v51
	vals[54] = v54
	vals[57] = v57
	vals[62] = v62
	vals[67] = v67
	vals[72] = v72
	vals[77] = v77
	vals[82] = v82
	var v11 uint64
	if v9 != 0x0 {
		v11 = 1
	}
	vals[11] = v11
	var v13 uint64
	if v11 != 0 {
		v13 = 0x1
	} else {
		v13 = 0x4
	}
	vals[13] = v13
	var v22 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v22 = m0[addr] & 0xffff
	}
	vals[22] = v22
	v24 := (v22 - 0x1) & 0xffff
	vals[24] = v24
	v26 := (v9 - 0x1) & 0xffff
	vals[26] = v26
	v33 := (v31 + 0x3f) & 0xffffff
	vals[33] = v33
	v37 := (v35 + 0x1) & 0xffffff
	vals[37] = v37
	v43 := (v40 + 0xf) & 0xffffff
	vals[43] = v43
	v46 := (v45 + 0x1) & 0xffffff
	vals[46] = v46
	v49 := (v48 + v9) & 0xffffff
	vals[49] = v49
	v52 := (v51 + v24) & 0xffffff
	vals[52] = v52
	v55 := (v54 + 0x1) & 0xffffff
	vals[55] = v55
	v60 := (v57 + 0x1) & 0xffffff
	vals[60] = v60
	v65 := (v62 + 0x1) & 0xffffff
	vals[65] = v65
	v70 := (v67 + 0x1) & 0xffffff
	vals[70] = v70
	v75 := (v72 + 0x1) & 0xffffff
	vals[75] = v75
	v80 := (v77 + 0x1) & 0xffffff
	vals[80] = v80
	v84 := (v82 + 0x1) & 0xffffff
	vals[84] = v84
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[14] = 0x0
		vals[16] = 0x0
		vals[17] = 0x0
		vals[18] = 0x0
		vals[19] = 0x0
		vals[20] = 0x1
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v24
		vals[28] = v28
		v34 := v31
		vals[34] = v34
		v38 := v35
		vals[38] = v38
		vals[41] = 0x1
		v44 := v43
		vals[44] = v44
		v47 := v46
		vals[47] = v47
		v50 := v49
		vals[50] = v50
		v53 := v52
		vals[53] = v53
		v56 := v55
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x1
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[73] = 0x0
		vals[74] = 0x0
		v76 := v72
		vals[76] = v76
		vals[78] = 0x0
		vals[79] = 0x0
		v81 := v77
		vals[81] = v81
		vals[83] = 0x1
		v85 := v84
		vals[85] = v85
		vals[86] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[14] = 0x0
		vals[16] = 0x1
		vals[17] = 0x1
		vals[18] = 0x1
		vals[19] = 0x2
		vals[20] = 0x2
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v34 := v33
		vals[34] = v34
		v38 := v37
		vals[38] = v38
		vals[41] = 0x0
		v44 := v40
		vals[44] = v44
		v47 := v45
		vals[47] = v47
		v50 := v48
		vals[50] = v50
		v53 := v51
		vals[53] = v53
		v56 := v54
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[73] = 0x0
		vals[74] = 0x0
		v76 := v72
		vals[76] = v76
		vals[78] = 0x1
		vals[79] = 0x1
		v81 := v80
		vals[81] = v81
		vals[83] = 0x0
		v85 := v82
		vals[85] = v85
		vals[86] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[14] = 0x0
		vals[16] = 0x2
		vals[17] = 0x2
		vals[18] = 0x3
		vals[19] = 0x3
		vals[20] = 0x3
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v34 := v31
		vals[34] = v34
		v38 := v35
		vals[38] = v38
		vals[41] = 0x0
		v44 := v40
		vals[44] = v44
		v47 := v45
		vals[47] = v47
		v50 := v48
		vals[50] = v50
		v53 := v51
		vals[53] = v53
		v56 := v54
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[73] = 0x1
		vals[74] = 0x1
		v76 := v75
		vals[76] = v76
		vals[78] = 0x0
		vals[79] = 0x0
		v81 := v77
		vals[81] = v81
		vals[83] = 0x0
		v85 := v82
		vals[85] = v85
		vals[86] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		vals[14] = 0x0
		vals[16] = 0x3
		v17 := v13
		vals[17] = v17
		v18 := v17
		vals[18] = v18
		v19 := v18
		vals[19] = v19
		v20 := v19
		vals[20] = v20
		v25 := v11
		vals[25] = v25
		var v27 uint64
		if v25 != 0 {
			v27 = v26
		} else {
			v27 = v9
		}
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v34 := v31
		vals[34] = v34
		v38 := v35
		vals[38] = v38
		v41 := v25
		vals[41] = v41
		var v44 uint64
		if v41 != 0 {
			v44 = v43
		} else {
			v44 = v40
		}
		vals[44] = v44
		var v47 uint64
		if v41 != 0 {
			v47 = v46
		} else {
			v47 = v45
		}
		vals[47] = v47
		v50 := v48
		vals[50] = v50
		v53 := v51
		vals[53] = v53
		v56 := v54
		vals[56] = v56
		var v58 uint64
		if v20 == 0x5 {
			v58 = 1
		}
		vals[58] = v58
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		var v63 uint64
		if v20 == 0x4 {
			v63 = 1
		}
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		var v66 uint64
		if v64 != 0 {
			v66 = v65
		} else {
			v66 = v62
		}
		vals[66] = v66
		var v68 uint64
		if v20 == 0x1 {
			v68 = 1
		}
		vals[68] = v68
		v69 := v68
		vals[69] = v69
		var v71 uint64
		if v69 != 0 {
			v71 = v70
		} else {
			v71 = v67
		}
		vals[71] = v71
		var v73 uint64
		if v20 == 0x3 {
			v73 = 1
		}
		vals[73] = v73
		vals[74] = 0x0
		v76 := v72
		vals[76] = v76
		var v78 uint64
		if v20 == 0x2 {
			v78 = 1
		}
		vals[78] = v78
		vals[79] = 0x0
		v81 := v77
		vals[81] = v81
		vals[83] = 0x0
		v85 := v82
		vals[85] = v85
		vals[86] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[14] = 0x1
		vals[16] = 0x5
		vals[17] = 0x5
		vals[18] = 0x5
		vals[19] = 0x5
		vals[20] = 0x5
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v34 := v31
		vals[34] = v34
		v38 := v35
		vals[38] = v38
		vals[41] = 0x0
		v44 := v40
		vals[44] = v44
		v47 := v45
		vals[47] = v47
		v50 := v48
		vals[50] = v50
		v53 := v51
		vals[53] = v53
		v56 := v54
		vals[56] = v56
		vals[58] = 0x1
		vals[59] = 0x1
		v61 := v60
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[73] = 0x0
		vals[74] = 0x0
		v76 := v72
		vals[76] = v76
		vals[78] = 0x0
		vals[79] = 0x0
		v81 := v77
		vals[81] = v81
		vals[83] = 0x0
		v85 := v82
		vals[85] = v85
		vals[86] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[14] = 0x0
		vals[16] = 0x5
		vals[17] = 0x5
		vals[18] = 0x5
		vals[19] = 0x5
		vals[20] = 0x5
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v34 := v31
		vals[34] = v34
		v38 := v35
		vals[38] = v38
		vals[41] = 0x0
		v44 := v40
		vals[44] = v44
		v47 := v45
		vals[47] = v47
		v50 := v48
		vals[50] = v50
		v53 := v51
		vals[53] = v53
		v56 := v54
		vals[56] = v56
		vals[58] = 0x1
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[73] = 0x0
		vals[74] = 0x0
		v76 := v72
		vals[76] = v76
		vals[78] = 0x0
		vals[79] = 0x0
		v81 := v77
		vals[81] = v81
		vals[83] = 0x0
		v85 := v82
		vals[85] = v85
		vals[86] = 0x1
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
		var v14 uint64
		if v0 == 0x4 {
			v14 = 1
		}
		vals[14] = v14
		var v16 uint64
		if v14 != 0 {
			v16 = 0x5
		} else {
			v16 = v0
		}
		vals[16] = v16
		var v17 uint64
		if v8 != 0 {
			v17 = v13
		} else {
			v17 = v16
		}
		vals[17] = v17
		var v18 uint64
		if v6 != 0 {
			v18 = 0x3
		} else {
			v18 = v17
		}
		vals[18] = v18
		var v19 uint64
		if v4 != 0 {
			v19 = 0x2
		} else {
			v19 = v18
		}
		vals[19] = v19
		var v20 uint64
		if v2 != 0 {
			v20 = 0x1
		} else {
			v20 = v19
		}
		vals[20] = v20
		v25 := v8 & v11
		vals[25] = v25
		var v27 uint64
		if v25 != 0 {
			v27 = v26
		} else {
			v27 = v9
		}
		vals[27] = v27
		var v28 uint64
		if v2 != 0 {
			v28 = v24
		} else {
			v28 = v27
		}
		vals[28] = v28
		var v34 uint64
		if v4 != 0 {
			v34 = v33
		} else {
			v34 = v31
		}
		vals[34] = v34
		var v38 uint64
		if v4 != 0 {
			v38 = v37
		} else {
			v38 = v35
		}
		vals[38] = v38
		v41 := (v2 | v25)
		vals[41] = v41
		var v44 uint64
		if v41 != 0 {
			v44 = v43
		} else {
			v44 = v40
		}
		vals[44] = v44
		var v47 uint64
		if v41 != 0 {
			v47 = v46
		} else {
			v47 = v45
		}
		vals[47] = v47
		var v50 uint64
		if v2 != 0 {
			v50 = v49
		} else {
			v50 = v48
		}
		vals[50] = v50
		var v53 uint64
		if v2 != 0 {
			v53 = v52
		} else {
			v53 = v51
		}
		vals[53] = v53
		var v56 uint64
		if v2 != 0 {
			v56 = v55
		} else {
			v56 = v54
		}
		vals[56] = v56
		var v58 uint64
		if v20 == 0x5 {
			v58 = 1
		}
		vals[58] = v58
		v59 := v14 & v58
		vals[59] = v59
		var v61 uint64
		if v59 != 0 {
			v61 = v60
		} else {
			v61 = v57
		}
		vals[61] = v61
		var v63 uint64
		if v20 == 0x4 {
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
		var v68 uint64
		if v20 == 0x1 {
			v68 = 1
		}
		vals[68] = v68
		v69 := v8 & v68
		vals[69] = v69
		var v71 uint64
		if v69 != 0 {
			v71 = v70
		} else {
			v71 = v67
		}
		vals[71] = v71
		var v73 uint64
		if v20 == 0x3 {
			v73 = 1
		}
		vals[73] = v73
		v74 := v6 & v73
		vals[74] = v74
		var v76 uint64
		if v74 != 0 {
			v76 = v75
		} else {
			v76 = v72
		}
		vals[76] = v76
		var v78 uint64
		if v20 == 0x2 {
			v78 = 1
		}
		vals[78] = v78
		v79 := v4 & v78
		vals[79] = v79
		var v81 uint64
		if v79 != 0 {
			v81 = v80
		} else {
			v81 = v77
		}
		vals[81] = v81
		v83 := v2 & v68
		vals[83] = v83
		var v85 uint64
		if v83 != 0 {
			v85 = v84
		} else {
			v85 = v82
		}
		vals[85] = v85
		var v86 uint64
		if v0 == 0x5 {
			v86 = 1
		}
		vals[86] = v86
	}
	done := vals[86] != 0
	l0 := vals[20] & 0x7
	l1 := vals[28] & 0xffff
	l2 := vals[30] & 0xffffff
	l3 := vals[34] & 0xffffff
	l4 := vals[38] & 0xffffff
	l5 := vals[30] & 0xffffff
	l6 := vals[44] & 0xffffff
	l7 := vals[47] & 0xffffff
	l8 := vals[50] & 0xffffff
	l9 := vals[53] & 0xffffff
	l10 := vals[56] & 0xffffff
	l11 := vals[61] & 0xffffff
	l12 := vals[66] & 0xffffff
	l13 := vals[71] & 0xffffff
	l14 := vals[76] & 0xffffff
	l15 := vals[81] & 0xffffff
	l16 := vals[85] & 0xffffff
	vals[0] = l0
	vals[9] = l1
	vals[29] = l2
	vals[31] = l3
	vals[35] = l4
	vals[39] = l5
	vals[40] = l6
	vals[45] = l7
	vals[48] = l8
	vals[51] = l9
	vals[54] = l10
	vals[57] = l11
	vals[62] = l12
	vals[67] = l13
	vals[72] = l14
	vals[77] = l15
	vals[82] = l16
	return cycles + 1, done
}

func step_sha_slice_t42(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[63]
	m0 := mems[0]
	v0 := vals[0]
	v9 := vals[9]
	v29 := vals[29]
	v33 := vals[33]
	v37 := vals[37]
	v42 := vals[42]
	v45 := vals[45]
	v48 := vals[48]
	v53 := vals[53]
	v58 := vals[58]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			var v22 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v22 = m0[addr] & 0xffff
			}
			v24 := (v22 - 0x1) & 0xffff
			v40 := (v37 + 0xf) & 0xffffff
			v43 := (v42 + 0x1) & 0xffffff
			v46 := (v45 + v24) & 0xffffff
			v28 := v24
			v32 := v29
			v36 := v33
			v41 := v40
			v44 := v43
			v47 := v46
			v52 := v48
			v57 := v53
			v62 := v58
			n1 := v28
			n2 := v32
			n3 := v36
			n4 := v41
			n5 := v44
			n6 := v47
			n7 := v52
			n8 := v57
			n9 := v62
			v0 = 0x1
			v9 = n1
			v29 = n2
			v33 = n3
			v37 = n4
			v42 = n5
			v45 = n6
			v48 = n7
			v53 = n8
			v58 = n9
		case 0x1:
			v31 := (v29 + 0x3f) & 0xffffff
			v35 := (v33 + 0x1) & 0xffffff
			v61 := (v58 + 0x1) & 0xffffff
			v27 := v9
			v28 := v27
			v32 := v31
			v36 := v35
			v41 := v37
			v44 := v42
			v47 := v45
			v52 := v48
			v57 := v53
			v62 := v61
			n1 := v28
			n2 := v32
			n3 := v36
			n4 := v41
			n5 := v44
			n6 := v47
			n7 := v52
			n8 := v57
			n9 := v62
			v0 = 0x2
			v9 = n1
			v29 = n2
			v33 = n3
			v37 = n4
			v42 = n5
			v45 = n6
			v48 = n7
			v53 = n8
			v58 = n9
		case 0x2:
			v56 := (v53 + 0x1) & 0xffffff
			v27 := v9
			v28 := v27
			v32 := v29
			v36 := v33
			v41 := v37
			v44 := v42
			v47 := v45
			v52 := v48
			v57 := v56
			v62 := v58
			n1 := v28
			n2 := v32
			n3 := v36
			n4 := v41
			n5 := v44
			n6 := v47
			n7 := v52
			n8 := v57
			n9 := v62
			v0 = 0x3
			v9 = n1
			v29 = n2
			v33 = n3
			v37 = n4
			v42 = n5
			v45 = n6
			v48 = n7
			v53 = n8
			v58 = n9
		case 0x3:
			var v11 uint64
			if v9 != 0x0 {
				v11 = 1
			}
			var v13 uint64
			if v11 != 0 {
				v13 = 0x1
			} else {
				v13 = 0x4
			}
			v26 := (v9 - 0x1) & 0xffff
			v40 := (v37 + 0xf) & 0xffffff
			v43 := (v42 + 0x1) & 0xffffff
			v51 := (v48 + 0x1) & 0xffffff
			v17 := v13
			v18 := v17
			v19 := v18
			v20 := v19
			v25 := v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			v28 := v27
			v32 := v29
			v36 := v33
			v38 := v25
			var v41 uint64
			if v38 != 0 {
				v41 = v40
			} else {
				v41 = v37
			}
			var v44 uint64
			if v38 != 0 {
				v44 = v43
			} else {
				v44 = v42
			}
			v47 := v45
			var v49 uint64
			if v20 == 0x1 {
				v49 = 1
			}
			v50 := v49
			var v52 uint64
			if v50 != 0 {
				v52 = v51
			} else {
				v52 = v48
			}
			v57 := v53
			v62 := v58
			n0 := v20
			n1 := v28
			n2 := v32
			n3 := v36
			n4 := v41
			n5 := v44
			n6 := v47
			n7 := v52
			n8 := v57
			n9 := v62
			v0 = n0
			v9 = n1
			v29 = n2
			v33 = n3
			v37 = n4
			v42 = n5
			v45 = n6
			v48 = n7
			v53 = n8
			v58 = n9
		case 0x4:
			v27 := v9
			v28 := v27
			v32 := v29
			v36 := v33
			v41 := v37
			v44 := v42
			v47 := v45
			v52 := v48
			v57 := v53
			v62 := v58
			n1 := v28
			n2 := v32
			n3 := v36
			n4 := v41
			n5 := v44
			n6 := v47
			n7 := v52
			n8 := v57
			n9 := v62
			v0 = 0x5
			v9 = n1
			v29 = n2
			v33 = n3
			v37 = n4
			v42 = n5
			v45 = n6
			v48 = n7
			v53 = n8
			v58 = n9
		case 0x5:
			break loop
		default:
			var v11 uint64
			if v9 != 0x0 {
				v11 = 1
			}
			var v13 uint64
			if v11 != 0 {
				v13 = 0x1
			} else {
				v13 = 0x4
			}
			var v22 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v22 = m0[addr] & 0xffff
			}
			v24 := (v22 - 0x1) & 0xffff
			v26 := (v9 - 0x1) & 0xffff
			v31 := (v29 + 0x3f) & 0xffffff
			v35 := (v33 + 0x1) & 0xffffff
			v40 := (v37 + 0xf) & 0xffffff
			v43 := (v42 + 0x1) & 0xffffff
			v46 := (v45 + v24) & 0xffffff
			v51 := (v48 + 0x1) & 0xffffff
			v56 := (v53 + 0x1) & 0xffffff
			v61 := (v58 + 0x1) & 0xffffff
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
			var v14 uint64
			if v0 == 0x4 {
				v14 = 1
			}
			var v16 uint64
			if v14 != 0 {
				v16 = 0x5
			} else {
				v16 = v0
			}
			var v17 uint64
			if v8 != 0 {
				v17 = v13
			} else {
				v17 = v16
			}
			var v18 uint64
			if v6 != 0 {
				v18 = 0x3
			} else {
				v18 = v17
			}
			var v19 uint64
			if v4 != 0 {
				v19 = 0x2
			} else {
				v19 = v18
			}
			var v20 uint64
			if v2 != 0 {
				v20 = 0x1
			} else {
				v20 = v19
			}
			v25 := v8 & v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			var v28 uint64
			if v2 != 0 {
				v28 = v24
			} else {
				v28 = v27
			}
			var v32 uint64
			if v4 != 0 {
				v32 = v31
			} else {
				v32 = v29
			}
			var v36 uint64
			if v4 != 0 {
				v36 = v35
			} else {
				v36 = v33
			}
			v38 := (v2 | v25)
			var v41 uint64
			if v38 != 0 {
				v41 = v40
			} else {
				v41 = v37
			}
			var v44 uint64
			if v38 != 0 {
				v44 = v43
			} else {
				v44 = v42
			}
			var v47 uint64
			if v2 != 0 {
				v47 = v46
			} else {
				v47 = v45
			}
			var v49 uint64
			if v20 == 0x1 {
				v49 = 1
			}
			v50 := v8 & v49
			var v52 uint64
			if v50 != 0 {
				v52 = v51
			} else {
				v52 = v48
			}
			var v54 uint64
			if v20 == 0x3 {
				v54 = 1
			}
			v55 := v6 & v54
			var v57 uint64
			if v55 != 0 {
				v57 = v56
			} else {
				v57 = v53
			}
			var v59 uint64
			if v20 == 0x2 {
				v59 = 1
			}
			v60 := v4 & v59
			var v62 uint64
			if v60 != 0 {
				v62 = v61
			} else {
				v62 = v58
			}
			var v63 uint64
			if v0 == 0x5 {
				v63 = 1
			}
			if v63 != 0 {
				break loop
			}
			n0 := v20
			n1 := v28
			n2 := v32
			n3 := v36
			n4 := v41
			n5 := v44
			n6 := v47
			n7 := v52
			n8 := v57
			n9 := v62
			v0 = n0
			v9 = n1
			v29 = n2
			v33 = n3
			v37 = n4
			v42 = n5
			v45 = n6
			v48 = n7
			v53 = n8
			v58 = n9
		}
	}
	vals[0] = v0
	vals[9] = v9
	vals[29] = v29
	vals[33] = v33
	vals[37] = v37
	vals[42] = v42
	vals[45] = v45
	vals[48] = v48
	vals[53] = v53
	vals[58] = v58
	var v11 uint64
	if v9 != 0x0 {
		v11 = 1
	}
	vals[11] = v11
	var v13 uint64
	if v11 != 0 {
		v13 = 0x1
	} else {
		v13 = 0x4
	}
	vals[13] = v13
	var v22 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v22 = m0[addr] & 0xffff
	}
	vals[22] = v22
	v24 := (v22 - 0x1) & 0xffff
	vals[24] = v24
	v26 := (v9 - 0x1) & 0xffff
	vals[26] = v26
	v31 := (v29 + 0x3f) & 0xffffff
	vals[31] = v31
	v35 := (v33 + 0x1) & 0xffffff
	vals[35] = v35
	v40 := (v37 + 0xf) & 0xffffff
	vals[40] = v40
	v43 := (v42 + 0x1) & 0xffffff
	vals[43] = v43
	v46 := (v45 + v24) & 0xffffff
	vals[46] = v46
	v51 := (v48 + 0x1) & 0xffffff
	vals[51] = v51
	v56 := (v53 + 0x1) & 0xffffff
	vals[56] = v56
	v61 := (v58 + 0x1) & 0xffffff
	vals[61] = v61
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[14] = 0x0
		vals[16] = 0x0
		vals[17] = 0x0
		vals[18] = 0x0
		vals[19] = 0x0
		vals[20] = 0x1
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v24
		vals[28] = v28
		v32 := v29
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		vals[38] = 0x1
		v41 := v40
		vals[41] = v41
		v44 := v43
		vals[44] = v44
		v47 := v46
		vals[47] = v47
		vals[49] = 0x1
		vals[50] = 0x0
		v52 := v48
		vals[52] = v52
		vals[54] = 0x0
		vals[55] = 0x0
		v57 := v53
		vals[57] = v57
		vals[59] = 0x0
		vals[60] = 0x0
		v62 := v58
		vals[62] = v62
		vals[63] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[14] = 0x0
		vals[16] = 0x1
		vals[17] = 0x1
		vals[18] = 0x1
		vals[19] = 0x2
		vals[20] = 0x2
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v32 := v31
		vals[32] = v32
		v36 := v35
		vals[36] = v36
		vals[38] = 0x0
		v41 := v37
		vals[41] = v41
		v44 := v42
		vals[44] = v44
		v47 := v45
		vals[47] = v47
		vals[49] = 0x0
		vals[50] = 0x0
		v52 := v48
		vals[52] = v52
		vals[54] = 0x0
		vals[55] = 0x0
		v57 := v53
		vals[57] = v57
		vals[59] = 0x1
		vals[60] = 0x1
		v62 := v61
		vals[62] = v62
		vals[63] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[14] = 0x0
		vals[16] = 0x2
		vals[17] = 0x2
		vals[18] = 0x3
		vals[19] = 0x3
		vals[20] = 0x3
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v32 := v29
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		vals[38] = 0x0
		v41 := v37
		vals[41] = v41
		v44 := v42
		vals[44] = v44
		v47 := v45
		vals[47] = v47
		vals[49] = 0x0
		vals[50] = 0x0
		v52 := v48
		vals[52] = v52
		vals[54] = 0x1
		vals[55] = 0x1
		v57 := v56
		vals[57] = v57
		vals[59] = 0x0
		vals[60] = 0x0
		v62 := v58
		vals[62] = v62
		vals[63] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		vals[14] = 0x0
		vals[16] = 0x3
		v17 := v13
		vals[17] = v17
		v18 := v17
		vals[18] = v18
		v19 := v18
		vals[19] = v19
		v20 := v19
		vals[20] = v20
		v25 := v11
		vals[25] = v25
		var v27 uint64
		if v25 != 0 {
			v27 = v26
		} else {
			v27 = v9
		}
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v32 := v29
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		v38 := v25
		vals[38] = v38
		var v41 uint64
		if v38 != 0 {
			v41 = v40
		} else {
			v41 = v37
		}
		vals[41] = v41
		var v44 uint64
		if v38 != 0 {
			v44 = v43
		} else {
			v44 = v42
		}
		vals[44] = v44
		v47 := v45
		vals[47] = v47
		var v49 uint64
		if v20 == 0x1 {
			v49 = 1
		}
		vals[49] = v49
		v50 := v49
		vals[50] = v50
		var v52 uint64
		if v50 != 0 {
			v52 = v51
		} else {
			v52 = v48
		}
		vals[52] = v52
		var v54 uint64
		if v20 == 0x3 {
			v54 = 1
		}
		vals[54] = v54
		vals[55] = 0x0
		v57 := v53
		vals[57] = v57
		var v59 uint64
		if v20 == 0x2 {
			v59 = 1
		}
		vals[59] = v59
		vals[60] = 0x0
		v62 := v58
		vals[62] = v62
		vals[63] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[14] = 0x1
		vals[16] = 0x5
		vals[17] = 0x5
		vals[18] = 0x5
		vals[19] = 0x5
		vals[20] = 0x5
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v32 := v29
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		vals[38] = 0x0
		v41 := v37
		vals[41] = v41
		v44 := v42
		vals[44] = v44
		v47 := v45
		vals[47] = v47
		vals[49] = 0x0
		vals[50] = 0x0
		v52 := v48
		vals[52] = v52
		vals[54] = 0x0
		vals[55] = 0x0
		v57 := v53
		vals[57] = v57
		vals[59] = 0x0
		vals[60] = 0x0
		v62 := v58
		vals[62] = v62
		vals[63] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[14] = 0x0
		vals[16] = 0x5
		vals[17] = 0x5
		vals[18] = 0x5
		vals[19] = 0x5
		vals[20] = 0x5
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v32 := v29
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		vals[38] = 0x0
		v41 := v37
		vals[41] = v41
		v44 := v42
		vals[44] = v44
		v47 := v45
		vals[47] = v47
		vals[49] = 0x0
		vals[50] = 0x0
		v52 := v48
		vals[52] = v52
		vals[54] = 0x0
		vals[55] = 0x0
		v57 := v53
		vals[57] = v57
		vals[59] = 0x0
		vals[60] = 0x0
		v62 := v58
		vals[62] = v62
		vals[63] = 0x1
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
		var v14 uint64
		if v0 == 0x4 {
			v14 = 1
		}
		vals[14] = v14
		var v16 uint64
		if v14 != 0 {
			v16 = 0x5
		} else {
			v16 = v0
		}
		vals[16] = v16
		var v17 uint64
		if v8 != 0 {
			v17 = v13
		} else {
			v17 = v16
		}
		vals[17] = v17
		var v18 uint64
		if v6 != 0 {
			v18 = 0x3
		} else {
			v18 = v17
		}
		vals[18] = v18
		var v19 uint64
		if v4 != 0 {
			v19 = 0x2
		} else {
			v19 = v18
		}
		vals[19] = v19
		var v20 uint64
		if v2 != 0 {
			v20 = 0x1
		} else {
			v20 = v19
		}
		vals[20] = v20
		v25 := v8 & v11
		vals[25] = v25
		var v27 uint64
		if v25 != 0 {
			v27 = v26
		} else {
			v27 = v9
		}
		vals[27] = v27
		var v28 uint64
		if v2 != 0 {
			v28 = v24
		} else {
			v28 = v27
		}
		vals[28] = v28
		var v32 uint64
		if v4 != 0 {
			v32 = v31
		} else {
			v32 = v29
		}
		vals[32] = v32
		var v36 uint64
		if v4 != 0 {
			v36 = v35
		} else {
			v36 = v33
		}
		vals[36] = v36
		v38 := (v2 | v25)
		vals[38] = v38
		var v41 uint64
		if v38 != 0 {
			v41 = v40
		} else {
			v41 = v37
		}
		vals[41] = v41
		var v44 uint64
		if v38 != 0 {
			v44 = v43
		} else {
			v44 = v42
		}
		vals[44] = v44
		var v47 uint64
		if v2 != 0 {
			v47 = v46
		} else {
			v47 = v45
		}
		vals[47] = v47
		var v49 uint64
		if v20 == 0x1 {
			v49 = 1
		}
		vals[49] = v49
		v50 := v8 & v49
		vals[50] = v50
		var v52 uint64
		if v50 != 0 {
			v52 = v51
		} else {
			v52 = v48
		}
		vals[52] = v52
		var v54 uint64
		if v20 == 0x3 {
			v54 = 1
		}
		vals[54] = v54
		v55 := v6 & v54
		vals[55] = v55
		var v57 uint64
		if v55 != 0 {
			v57 = v56
		} else {
			v57 = v53
		}
		vals[57] = v57
		var v59 uint64
		if v20 == 0x2 {
			v59 = 1
		}
		vals[59] = v59
		v60 := v4 & v59
		vals[60] = v60
		var v62 uint64
		if v60 != 0 {
			v62 = v61
		} else {
			v62 = v58
		}
		vals[62] = v62
		var v63 uint64
		if v0 == 0x5 {
			v63 = 1
		}
		vals[63] = v63
	}
	done := vals[63] != 0
	l0 := vals[20] & 0x7
	l1 := vals[28] & 0xffff
	l2 := vals[32] & 0xffffff
	l3 := vals[36] & 0xffffff
	l4 := vals[41] & 0xffffff
	l5 := vals[44] & 0xffffff
	l6 := vals[47] & 0xffffff
	l7 := vals[52] & 0xffffff
	l8 := vals[57] & 0xffffff
	l9 := vals[62] & 0xffffff
	vals[0] = l0
	vals[9] = l1
	vals[29] = l2
	vals[33] = l3
	vals[37] = l4
	vals[42] = l5
	vals[45] = l6
	vals[48] = l7
	vals[53] = l8
	vals[58] = l9
	return cycles + 1, done
}

func init() {
	rtl.RegisterNative("d989664d881f60f5fc3bbf9ac06d023546d9144a13c276837d59bf44e26ee7b7", "sha", step_sha)
	rtl.RegisterNative("370d9a7aa2f5d6a756848dc79a13cb7b8b4beff924285252dc46a602348eefd5", "sha_ins", step_sha_ins)
	rtl.RegisterNative("5a810c84cc97968f08537c4d7530287712209628c155183b5c299951444339bb", "sha_pruned", step_sha_pruned)
	rtl.RegisterNative("632f8d420428d89b2ad70fa3f0be40d82297b02d956b2bf09a0a0f2b37d1083d", "sha_cone", step_sha_cone)
	rtl.RegisterNative("b7785925d1651b69335eafcafb7922228b9be2275ed44878100b260aa9467530", "sha_slice_all", step_sha_slice_all)
	rtl.RegisterNative("2e4b2e9f4d59aabb42b25949d22e9544d035c67ba5e73c88fc6284a510a3d3ef", "sha_slice_t42", step_sha_slice_t42)
}
