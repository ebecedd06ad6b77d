package repro

class OracleSpec extends SparkSpec {
  import spark.implicits._

  test("rows that read the same with their cells joined still compare as bags") {
    // Joined with a \u0001 between cells, both rows read "a\u0001b\u0001c".
    val rows = Seq(("a\u0001b", "c"), ("a", "b\u0001c")).toDF("x", "y")
    Oracle.assertEquivalent(rows, "SELECT x, y FROM t ORDER BY x DESC", "t" -> rows)
    Oracle.assertEquivalent(rows, "SELECT x, y FROM t ORDER BY x", "t" -> rows)
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(rows, "SELECT x, y FROM t WHERE x = 'a'", "t" -> rows)
    }
  }
}
