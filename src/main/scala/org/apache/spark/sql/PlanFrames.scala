package org.apache.spark.sql

import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan

/** Spark-internal calls the program needs: DataFrames over hand-built
  * plans or internal rows, and columns over Catalyst expressions. They
  * are `private[sql]` or unstable, hence this bridge in Spark's package.
  */
object PlanFrames {
  def ofPlan(spark: SparkSession, plan: LogicalPlan): DataFrame =
    classic.Dataset.ofRows(spark.asInstanceOf[classic.SparkSession], plan)

  /** `df` as a leaf relation over its internal rows, whose plan is not
    * planned again by each query that reads it: no row is converted to a
    * `Row` and back.
    */
  def leaf(df: DataFrame): DataFrame =
    df.sparkSession.asInstanceOf[classic.SparkSession].internalCreateDataFrame(df.queryExecution.toRdd, df.schema)

  def column(e: Expression): Column = classic.ExpressionUtils.column(e)

  def expression(c: Column): Expression = classic.ExpressionUtils.expression(c)
}
