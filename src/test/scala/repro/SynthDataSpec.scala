package repro

import org.apache.spark.sql.functions._

class SynthDataSpec extends SparkSpec {

  private val sf = 0.001

  test("lineitem scales with sf and is deterministic") {
    val a = SynthData.lineitem(spark, sf)
    assert(a.count() == 6000L)
    val s1 = a.agg(sum("l_extendedprice")).head().getDouble(0)
    val s2 = SynthData.lineitem(spark, sf).agg(sum("l_extendedprice")).head().getDouble(0)
    assert(s1 == s2)
  }

  test("orders keys are dense 1..N") {
    val o = SynthData.orders(spark, sf)
    val r = o.agg(min("o_orderkey"), max("o_orderkey"), count(lit(1))).head()
    assert(r.getLong(0) == 1L && r.getLong(1) == r.getLong(2))
  }

  test("lineitem orderkeys reference the orders domain") {
    val nOrders = SynthData.orders(spark, sf).count()
    val bad = SynthData.lineitem(spark, sf)
      .where(col("l_orderkey") < 1 || col("l_orderkey") > nOrders + 1).count()
    assert(bad == 0)
  }
}
